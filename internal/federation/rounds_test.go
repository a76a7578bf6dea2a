package federation

import (
	"math"
	"testing"

	"qens/internal/cluster"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
)

func TestExecuteRounds(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	res, _, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundDeltas) != 3 {
		t.Fatalf("%d round deltas, want 3", len(res.RoundDeltas))
	}
	// The converged single global model must predict the line.
	if res.Ensemble.Size() != 1 {
		t.Fatalf("ensemble size %d, want 1", res.Ensemble.Size())
	}
	got := res.Ensemble.Predict([]float64{25})
	if math.Abs(got-51) > 10 {
		t.Fatalf("fedavg model predicts %v at x=25, want ~51", got)
	}
	// Parameter movement should not blow up over rounds.
	if res.RoundDeltas[2] > res.RoundDeltas[0]*10 {
		t.Fatalf("rounds diverging: deltas %v", res.RoundDeltas)
	}
	// Accounting scales with rounds.
	if res.Stats.SamplesUsed <= 0 || res.Stats.BytesUp <= res.Stats.BytesDown/10 {
		t.Fatalf("stats look wrong: %+v", res.Stats)
	}
}

func TestExecuteRoundsValidation(t *testing.T) {
	fleet := testFleet(t)
	cache, err := NewReuseCache(0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	if _, _, err := fleet.Leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: sel, Cache: cache, Rounds: 2}); err == nil {
		t.Fatal("accepted a multi-round request with a reuse cache")
	}
	// Rounds 0 and 1 are both the paper's single round: an ensemble of
	// local models, no FedAvg history.
	for _, rounds := range []int{0, 1} {
		res, _, err := fleet.Leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: sel, Aggregation: WeightedAveraging, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ensemble.Size() != len(res.LocalParams) || res.RoundDeltas != nil || res.GlobalParams.Values != nil {
			t.Fatalf("rounds=%d: ensemble of %d, %d deltas", rounds, res.Ensemble.Size(), len(res.RoundDeltas))
		}
	}
}

func TestExecuteRoundsImprovesOverOneRound(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	one, _, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	five, _, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	mse1, _, ok1 := EvaluateResult(one, fleet.Test)
	mse5, _, ok5 := EvaluateResult(five, fleet.Test)
	if !ok1 || !ok5 {
		t.Fatal("no test data in query")
	}
	// Five FedAvg rounds must not be dramatically worse than the
	// single-round ensemble (usually better); a 2x regression indicates
	// a broken aggregation loop.
	if mse5 > mse1*2 {
		t.Fatalf("5 rounds (%v) much worse than 1 (%v)", mse5, mse1)
	}
}

func TestExecuteParallelErrorPropagates(t *testing.T) {
	fleet := testFleet(t)
	// A selector that demands a nonexistent cluster index triggers a
	// node-side training error, which must surface.
	bad := badClusterSelector{}
	if _, _, err := fleet.Leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: bad, Aggregation: ModelAveraging}); err == nil {
		t.Fatal("execute swallowed a node error")
	}
}

// badClusterSelector selects node-0 with an out-of-range cluster.
type badClusterSelector struct{}

func (badClusterSelector) Name() string { return "bad" }

func (badClusterSelector) Select(_ query.Query, _ []cluster.NodeSummary, _ *selection.Context) ([]selection.Participant, error) {
	return []selection.Participant{{NodeID: "node-0", Rank: 1, Clusters: []int{99}}}, nil
}

func TestEvaluateGlobal(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	res, _, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: sel, Aggregation: WeightedAveraging, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	mse, n, err := fleet.Leader.EvaluateGlobal(res.GlobalParams, q.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no in-query samples across the federation")
	}
	if mse <= 0 || mse > 200 {
		t.Fatalf("pooled MSE %v", mse)
	}
	// Bounds with no data anywhere: zero samples, no error.
	far := geometry.MustRect([]float64{1e6, 1e6}, []float64{2e6, 2e6})
	mse, n, err = fleet.Leader.EvaluateGlobal(res.GlobalParams, far)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || mse != 0 {
		t.Fatalf("far bounds gave mse=%v n=%d", mse, n)
	}
}
