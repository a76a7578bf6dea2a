package region

import (
	"context"
	"fmt"
	"testing"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

func TestRouterApproxRequiresReuseCache(t *testing.T) {
	cfg := fedConfig()
	nodes := buildNodes(t)
	clients := make([]federation.Client, len(nodes))
	roster := make(map[string]int, len(nodes))
	for i, n := range nodes {
		clients[i] = federation.LocalClient{Node: n}
		roster[n.ID()] = i
	}
	fed, err := federation.NewLeader(cfg, nil, clients)
	if err != nil {
		t.Fatal(err)
	}
	lead, err := NewLeader("r0", fed, roster)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewRouter(Config{
		Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed,
		ApproxCoverage: 0.5, // no ReuseIoU
	}, []Service{lead})
	if err == nil {
		t.Fatal("accepted approx coverage without a reuse cache")
	}
}

// TestRouterApproxTierServes: after an exact-IoU miss, a valid cached
// entry that blankets the new query serves it — reported as the approx
// tier so clients can tell a subspace answer from an exact replay.
func TestRouterApproxTierServes(t *testing.T) {
	cfg := fedConfig()
	router, _, _ := shardedFixture(t, 2, Config{
		Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed,
		ReuseIoU: 0.95, ReuseCap: 8, ApproxCoverage: 0.5,
	})
	ctx := context.Background()
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}

	wide := mustQuery(t, "q-wide", 0, 34, -500, 500)
	if _, kind, err := router.ExecuteQuery(ctx, wide, sel, federation.ModelAveraging); err != nil || kind != federation.ServeFresh {
		t.Fatalf("first execution: kind=%v err=%v", kind, err)
	}
	// Contained query: IoU (area ratio) is well under 0.95 but the wide
	// entry covers it completely.
	inner := mustQuery(t, "q-inner", 5, 30, -400, 400)
	res, kind, err := router.ExecuteQuery(ctx, inner, sel, federation.ModelAveraging)
	if err != nil {
		t.Fatal(err)
	}
	if kind != federation.ServeApprox {
		t.Fatalf("contained query: kind=%v, want approx", kind)
	}
	if res == nil || !kind.Reused() {
		t.Fatal("approx serve must be a reused result")
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reuse == nil || st.Reuse.ApproxHits != 1 || st.Reuse.ApproxPct != 50 {
		t.Fatalf("reuse stats %+v: want 1 approx hit at 50%%", st.Reuse)
	}

	// An approx serve counts as reused: it trained nothing.
	inner2 := mustQuery(t, "q-inner-2", 6, 29, -400, 400)
	if _, kind, err := router.ExecuteQuery(ctx, inner2, sel, federation.ModelAveraging); err != nil || !kind.Reused() {
		t.Fatalf("approx serve: kind=%v err=%v", kind, err)
	}
}

// TestRouterApproxDisabledGoldenReplay pins ApproxCoverage=0 to the
// seed semantics: a 60-query replay where the expected hit/miss
// decision is computed by an inline reference of the original root
// cache (insertion-order scan, first entry at or above the IoU
// threshold wins). Any divergence — an approx serve leaking in, a scan
// order change — fails the replay.
func TestRouterApproxDisabledGoldenReplay(t *testing.T) {
	cfg := fedConfig()
	router, _, _ := shardedFixture(t, 2, Config{
		Spec: cfg.Spec, LocalEpochs: cfg.LocalEpochs, Seed: cfg.Seed,
		ReuseIoU: 0.9, ReuseCap: 4,
	})
	ctx := context.Background()
	sel := selection.QueryDriven{Epsilon: 1e-9, TopL: 2}

	type refEntry struct {
		bounds geometry.Rect
		res    *federation.Result
	}
	var ref []refEntry
	refLookup := func(q query.Query) *federation.Result {
		for _, e := range ref {
			if geometry.IoU(e.bounds, q.Bounds) >= 0.9 {
				return e.res
			}
		}
		return nil
	}
	refStore := func(q query.Query, res *federation.Result) {
		if len(ref) == 4 {
			ref = ref[1:]
		}
		ref = append(ref, refEntry{bounds: q.Bounds.Clone(), res: res})
	}

	src := rng.New(99)
	hot := [][2]float64{{0, 22}, {12, 34}, {40, 62}}
	for i := 0; i < 60; i++ {
		var lo, hi float64
		if i%2 == 0 {
			h := hot[(i/2)%len(hot)]
			j := src.Uniform(-0.5, 0.5)
			lo, hi = h[0]+j, h[1]+j
		} else {
			lo = src.Uniform(0, 50)
			hi = lo + src.Uniform(10, 24)
		}
		q := mustQuery(t, fmt.Sprintf("r-%d", i), lo, hi, -500, 500)

		want := refLookup(q)
		res, kind, err := router.ExecuteQuery(ctx, q, sel, federation.ModelAveraging)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		if kind == federation.ServeApprox {
			t.Fatalf("q%d: approx serve with the tier disabled", i)
		}
		if want != nil {
			if kind != federation.ServeExact || res != want {
				t.Fatalf("q%d: want exact hit on stored entry, got kind=%v match=%v",
					i, kind, res == want)
			}
		} else {
			if kind != federation.ServeFresh {
				t.Fatalf("q%d: reference expects a fresh execution, got %v", i, kind)
			}
			refStore(q, res)
		}
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reuse == nil || st.Reuse.ApproxHits != 0 || st.Reuse.ApproxPct != 0 {
		t.Fatalf("reuse stats %+v: approx tier must stay silent", st.Reuse)
	}
	if st.Reuse.Hits == 0 {
		t.Fatalf("reuse stats %+v: hot workload produced no hits", st.Reuse)
	}
}
