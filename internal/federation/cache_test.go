package federation

import (
	"testing"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
)

func TestNewReuseCacheValidation(t *testing.T) {
	if _, err := NewReuseCache(0, 5); err == nil {
		t.Fatal("accepted IoU 0")
	}
	if _, err := NewReuseCache(1.5, 5); err == nil {
		t.Fatal("accepted IoU > 1")
	}
	if _, err := NewReuseCache(0.8, 0); err == nil {
		t.Fatal("accepted capacity 0")
	}
}

func TestReuseCacheHitAndMiss(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewReuseCache(0.7, 8)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	q := midQuery(t)

	res1, kind, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if kind.Reused() {
		t.Fatal("first execution cannot be a cache hit")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len %d", cache.Len())
	}

	// An almost identical query must hit.
	near, _ := query.New("q-near", geometry.MustRect(
		[]float64{10.5, -50}, []float64{40, 150}))
	res2, kind, err := fleet.Leader.Execute(ctxb(), Request{Query: near, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !kind.Reused() {
		t.Fatal("near-identical query missed the cache")
	}
	if res2 != res1 {
		t.Fatal("hit returned a different result object")
	}

	// A far-away query (still supported by the fleet) must miss.
	far, _ := query.New("q-far", geometry.MustRect(
		[]float64{60, 50}, []float64{90, 200}))
	_, kind, err = fleet.Leader.Execute(ctxb(), Request{Query: far, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if kind.Reused() {
		t.Fatal("disjoint query hit the cache")
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats %d/%d, want 1/2", hits, misses)
	}
}

func TestReuseCacheEviction(t *testing.T) {
	cache, _ := NewReuseCache(0.99, 2)
	mk := func(lo float64) *Result {
		q, _ := query.New("q", geometry.MustRect([]float64{lo, 0}, []float64{lo + 1, 1}))
		return &Result{Query: q, Ensemble: &Ensemble{}}
	}
	cache.Store(mk(0))
	cache.Store(mk(10))
	cache.Store(mk(20)) // evicts the first
	if cache.Len() != 2 {
		t.Fatalf("len %d", cache.Len())
	}
	q0, _ := query.New("probe", geometry.MustRect([]float64{0, 0}, []float64{1, 1}))
	if _, ok := cache.Lookup(q0); ok {
		t.Fatal("evicted entry still served")
	}
	q20, _ := query.New("probe", geometry.MustRect([]float64{20, 0}, []float64{21, 1}))
	if _, ok := cache.Lookup(q20); !ok {
		t.Fatal("fresh entry missing")
	}
}

func TestReuseCacheIgnoresNilResults(t *testing.T) {
	cache, _ := NewReuseCache(0.9, 2)
	cache.Store(nil)
	cache.Store(&Result{}) // no ensemble
	if cache.Len() != 0 {
		t.Fatalf("len %d", cache.Len())
	}
}

// TestReuseCacheEpochFencing pins the versioned-lookup contract:
// epoch-stamped entries only match their own epoch, Epoch-0 entries
// (legacy callers) match anything, and storing a newer-epoch result
// prunes the strictly older generations.
func TestReuseCacheEpochFencing(t *testing.T) {
	cache, _ := NewReuseCache(0.9, 8)
	mk := func(id string, lo float64, epoch uint64) *Result {
		q, _ := query.New(id, geometry.MustRect([]float64{lo, 0}, []float64{lo + 1, 1}))
		return &Result{Query: q, Ensemble: &Ensemble{}, Epoch: epoch}
	}
	cache.Store(mk("old", 0, 1))
	cache.Store(mk("legacy", 10, 0))

	probe, _ := query.New("p", geometry.MustRect([]float64{0, 0}, []float64{1, 1}))
	if _, ok := cache.LookupEpoch(probe, 1); !ok {
		t.Fatal("same-epoch lookup missed")
	}
	if _, ok := cache.LookupEpoch(probe, 2); ok {
		t.Fatal("stale epoch-1 entry served at epoch 2")
	}
	if _, ok := cache.Lookup(probe); !ok {
		t.Fatal("unversioned Lookup must ignore epochs")
	}
	legacyProbe, _ := query.New("p", geometry.MustRect([]float64{10, 0}, []float64{11, 1}))
	if _, ok := cache.LookupEpoch(legacyProbe, 7); !ok {
		t.Fatal("Epoch-0 entry must match any epoch")
	}

	// Storing an epoch-3 result prunes the epoch-1 entry but keeps the
	// legacy Epoch-0 one.
	cache.Store(mk("new", 20, 3))
	if cache.Len() != 2 {
		t.Fatalf("len %d after pruning, want 2 (legacy + new)", cache.Len())
	}
	if _, ok := cache.LookupEpoch(probe, 1); ok {
		t.Fatal("pruned epoch-1 entry still served")
	}
}

// TestExecuteWithReuseEpochInvalidation is the end-to-end version of
// the stale-ensemble fix: after InvalidateSummaries the advertisement
// epoch moves, the cached result stops matching, and the same query
// retrains instead of serving the pre-invalidation ensemble.
func TestExecuteWithReuseEpochInvalidation(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewReuseCache(0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	q := midQuery(t)

	res1, kind, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if kind.Reused() {
		t.Fatal("first execution cannot be a hit")
	}
	if res1.Epoch == 0 {
		t.Fatal("result missing the advertisement epoch stamp")
	}
	if _, kind, _ = fleet.Leader.Execute(ctxb(), Request{
		Query:       q,
		Selector:    sel,
		Aggregation: WeightedAveraging,
		Cache:       cache,
	}); !kind.Reused() {
		t.Fatal("identical query at the same epoch must hit")
	}

	fleet.Leader.InvalidateSummaries()

	res2, kind, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if kind.Reused() {
		t.Fatal("post-invalidation query served the stale ensemble")
	}
	if res2.Epoch <= res1.Epoch {
		t.Fatalf("epoch did not advance: %d then %d", res1.Epoch, res2.Epoch)
	}
	// The fresh result replaced the stale generation in the cache and
	// now serves hits at the new epoch.
	if _, kind, _ = fleet.Leader.Execute(ctxb(), Request{
		Query:       q,
		Selector:    sel,
		Aggregation: WeightedAveraging,
		Cache:       cache,
	}); !kind.Reused() {
		t.Fatal("retrained result not cached at the new epoch")
	}
}

func TestIoU(t *testing.T) {
	a := geometry.MustRect([]float64{0, 0}, []float64{10, 10})
	if got := geometry.IoU(a, a); got != 1 {
		t.Fatalf("self IoU %v", got)
	}
	b := geometry.MustRect([]float64{5, 0}, []float64{15, 10})
	// inter 50, union 150.
	if got := geometry.IoU(a, b); got < 0.33 || got > 0.34 {
		t.Fatalf("half-shift IoU %v", got)
	}
	c := geometry.MustRect([]float64{100, 100}, []float64{110, 110})
	if got := geometry.IoU(a, c); got != 0 {
		t.Fatalf("disjoint IoU %v", got)
	}
	// Degenerate point rectangles.
	p := geometry.MustRect([]float64{5, 5}, []float64{5, 5})
	if got := geometry.IoU(p, p); got != 1 {
		t.Fatalf("point self IoU %v", got)
	}
}
