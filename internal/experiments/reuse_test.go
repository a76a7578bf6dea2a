package experiments

import (
	"strings"
	"testing"
)

func TestReuse(t *testing.T) {
	opts := quickOpts()
	opts.Queries = 18
	res, err := Reuse(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries executed")
	}
	// A focused workload must produce real reuse.
	if res.HitRate <= 0 {
		t.Fatalf("hit rate %v, want > 0", res.HitRate)
	}
	if res.HitRate >= 1 {
		t.Fatalf("hit rate %v — the first query of each focus region must miss", res.HitRate)
	}
	// Reuse must cut training: a hit runs no node round. Counting
	// rounds rather than comparing wall-clock totals keeps the check
	// independent of machine load.
	if res.RoundsWithCache >= res.RoundsWithoutCache || res.RoundsWithCache == 0 {
		t.Fatalf("cache did not save training rounds: %d vs %d", res.RoundsWithCache, res.RoundsWithoutCache)
	}
	// The accuracy cost of answering from a neighbour's model must be
	// bounded (not orders of magnitude).
	if res.LossWithCache > res.LossWithoutCache*5+100 {
		t.Fatalf("cached loss %v blew up vs fresh %v", res.LossWithCache, res.LossWithoutCache)
	}
	if !strings.Contains(res.String(), "hit rate") {
		t.Fatal("rendering broken")
	}
}

func TestReuseDeterministic(t *testing.T) {
	opts := quickOpts()
	opts.Queries = 12
	a, err := Reuse(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reuse(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.HitRate != b.HitRate || a.Queries != b.Queries {
		t.Fatalf("reuse not deterministic: %+v vs %+v", a, b)
	}
}
