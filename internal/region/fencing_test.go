package region

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"qens/internal/federation"
	"qens/internal/selection"
)

func reuseFixture(t *testing.T) (*Router, []*federation.Node) {
	t.Helper()
	cfg := fedConfig()
	router, _, nodes := shardedFixture(t, 2, Config{
		Spec:        cfg.Spec,
		LocalEpochs: cfg.LocalEpochs,
		Seed:        cfg.Seed,
		ReuseIoU:    0.99,
		ReuseCap:    8,
	})
	return router, nodes
}

// TestReuseFencedPerRegion verifies the cross-tier fencing contract: a
// node requantizing inside one shard invalidates only that region's
// snapshot and the root-side reuse entries whose epoch basis touched
// it — entries routed through other regions keep serving.
func TestReuseFencedPerRegion(t *testing.T) {
	router, nodes := reuseFixture(t)
	ctx := context.Background()
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}
	// qLeft routes only to region-0, qRight only to region-1 (disjoint
	// from the other region's covering rect in both dimensions).
	qLeft := mustQuery(t, "q-left", 1, 20, -500, 75)
	qRight := mustQuery(t, "q-right", 41, 60, 85, 130)

	if _, kind, err := router.ExecuteQuery(ctx, qLeft, sel, federation.ModelAveraging); err != nil || kind.Reused() {
		t.Fatalf("qLeft first: kind=%v err=%v", kind, err)
	}
	if _, kind, err := router.ExecuteQuery(ctx, qLeft, sel, federation.ModelAveraging); err != nil || !kind.Reused() {
		t.Fatalf("qLeft second: kind=%v err=%v", kind, err)
	}
	if _, kind, err := router.ExecuteQuery(ctx, qRight, sel, federation.ModelAveraging); err != nil || kind.Reused() {
		t.Fatalf("qRight first: kind=%v err=%v", kind, err)
	}
	if _, kind, err := router.ExecuteQuery(ctx, qRight, sel, federation.ModelAveraging); err != nil || !kind.Reused() {
		t.Fatalf("qRight second: kind=%v err=%v", kind, err)
	}

	// Drift inside region-1: node-5 requantizes. The root only learns
	// when a region-1 response echoes the newer epoch, so drive one
	// uncacheable round through the full fleet (random selection is
	// never served from the reuse cache).
	if err := nodes[5].Requantize(); err != nil {
		t.Fatal(err)
	}
	if _, kind, err := router.ExecuteQuery(ctx, mustQuery(t, "q-all", -10, 80, -30, 160),
		selection.Random{L: 6}, federation.ModelAveraging); err != nil || kind.Reused() {
		t.Fatalf("drift round: kind=%v err=%v", kind, err)
	}

	// Region-1's basis moved: qRight must re-execute. Region-0 was
	// untouched: qLeft keeps serving from cache.
	if _, kind, err := router.ExecuteQuery(ctx, qLeft, sel, federation.ModelAveraging); err != nil || !kind.Reused() {
		t.Fatalf("qLeft after drift: kind=%v err=%v (fenced too broadly)", kind, err)
	}
	if _, kind, err := router.ExecuteQuery(ctx, qRight, sel, federation.ModelAveraging); err != nil || kind.Reused() {
		t.Fatalf("qRight after drift: kind=%v err=%v (stale entry survived the fence)", kind, err)
	}
	// And the re-executed entry is valid again at the new epoch.
	if _, kind, err := router.ExecuteQuery(ctx, qRight, sel, federation.ModelAveraging); err != nil || !kind.Reused() {
		t.Fatalf("qRight re-cache: kind=%v err=%v", kind, err)
	}

	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reuse == nil || st.Reuse.Fenced == 0 {
		t.Fatalf("reuse stats %+v: expected fenced entries", st.Reuse)
	}
	if st.Reuse.Hits < 3 {
		t.Fatalf("reuse stats %+v: expected at least 3 hits", st.Reuse)
	}
}

// TestEpochFencingRaceStress hammers the router with concurrent
// queries, stats scrapes and mid-flight requantizations across both
// shards. Run under -race (make check does); the assertion here is
// only that every outcome is a result or a no-candidates miss, and
// that the topology converges to the post-drift epochs.
func TestEpochFencingRaceStress(t *testing.T) {
	router, nodes := reuseFixture(t)
	ctx := context.Background()
	queries := []struct {
		id       string
		xlo, xhi float64
		ylo, yhi float64
	}{
		{"left", 1, 20, -500, 75},
		{"right", 41, 60, 85, 130},
		{"span", -100, 1000, -1000, 1000},
		{"miss", 500, 600, 2000, 3000},
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				spec := queries[(w+i)%len(queries)]
				q := mustQuery(t, fmt.Sprintf("stress-%d-%d-%s", w, i, spec.id), spec.xlo, spec.xhi, spec.ylo, spec.yhi)
				_, _, err := router.ExecuteQuery(ctx, q,
					selection.QueryDriven{Epsilon: 1e-9, TopL: 2}, federation.WeightedAveraging)
				if err != nil && !errors.Is(err, selection.ErrNoCandidates) {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			// Alternate drift between the two shards.
			if err := nodes[(i%2)*5].Requantize(); err != nil {
				t.Errorf("requantize %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := router.Stats(ctx); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
			if _, err := router.FleetReport(ctx); err != nil {
				t.Errorf("fleet report: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// One more full-fleet round flushes any drift still unobserved by
	// the root, then the topology must be self-consistent.
	if _, _, err := router.ExecuteQuery(ctx, mustQuery(t, "stress-flush", -10, 80, -30, 160),
		selection.AllNodes{}, federation.ModelAveraging); err != nil {
		t.Fatal(err)
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range st.Regions {
		if reg.Epoch == 0 {
			t.Fatalf("region %s epoch unresolved: %+v", reg.RegionID, st.Regions)
		}
	}
}
