package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
)

// TestConcurrentExecute hammers one leader from many goroutines mixing
// plain, FedAvg, cached and random-selector requests — the contract the
// gateway's worker pool depends on. Run under -race (make check does)
// this validates the shared-RNG locking and the summary/warm-up cache
// guards.
func TestConcurrentExecute(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewReuseCache(0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	rnd := selection.Random{L: 2}

	// A spread of overlapping queries so the reuse cache sees both
	// hits and misses concurrently.
	queries := make([]query.Query, 6)
	for i := range queries {
		lo := float64(5 * i)
		q, err := query.New(fmt.Sprintf("q-%d", i),
			geometry.MustRect([]float64{lo, -50}, []float64{lo + 30, 150}))
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := queries[(g+i)%len(queries)]
				var err error
				switch (g + i) % 4 {
				case 0:
					_, _, err = fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging})
				case 1:
					_, _, err = fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: ModelAveraging, Rounds: 2})
				case 2:
					_, _, err = fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Cache: cache})
				case 3:
					_, _, err = fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: rnd, Aggregation: ModelAveraging})
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d (%s): %w", g, i, q.ID, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentExecuteWithColdCaches starts every goroutine before
// the summary/warm-up caches are populated, so the lazy fetch itself
// races unless serialized.
func TestConcurrentExecuteWithColdCaches(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	sel := selection.GameTheory{L: 2} // exercises the warm-up path too
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: ModelAveraging}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestExecuteContextExpired: an already-expired deadline must return
// the context error without touching the fleet.
func TestExecuteContextExpired(t *testing.T) {
	fleet := testFleet(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, _, err := fleet.Leader.Execute(ctx, Request{Query: midQuery(t), Selector: selection.AllNodes{}, Aggregation: ModelAveraging})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("expired query did not return promptly")
	}
	if _, _, err := fleet.Leader.Execute(ctx, Request{
		Query:       midQuery(t),
		Selector:    selection.AllNodes{},
		Aggregation: WeightedAveraging,
		Rounds:      2,
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("rounds err = %v, want context.DeadlineExceeded", err)
	}
}

// TestExecuteContextCancelMidQuery: cancellation between training
// rounds aborts the remaining participants.
func TestExecuteContextCancelMidQuery(t *testing.T) {
	fleet := testFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// LocalClient checks ctx before each round; with a canceled ctx
	// selection itself may run but no training must complete.
	res, _, err := fleet.Leader.Execute(ctx, Request{Query: midQuery(t), Selector: selection.AllNodes{}, Aggregation: ModelAveraging})
	if err == nil {
		t.Fatalf("expected error, got result with %d params", len(res.LocalParams))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
