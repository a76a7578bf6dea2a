package federation

import (
	"math"
	"testing"

	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// testFleet builds a small heterogeneous fleet: three nodes on the
// same line over different x ranges plus one adversarial node with a
// flipped slope in a far-away range.
func testFleet(t *testing.T) *Fleet {
	t.Helper()
	data := []*dataset.Dataset{
		lineDataset(400, 2, 1, 0, 30, 10),
		lineDataset(400, 2, 1, 20, 60, 11),
		lineDataset(400, 2, 1, 50, 90, 12),
		lineDataset(400, -2, 500, 200, 300, 13), // flipped, shifted
	}
	cfg := Config{Spec: ml.PaperLR(1), ClusterK: 5, LocalEpochs: 15, Seed: 1}
	fleet, err := NewSimulatedFleet(data, cfg, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

func midQuery(t *testing.T) query.Query {
	t.Helper()
	// A query over x in [10, 40]: supported by nodes 0-1, partially 2,
	// never 3.
	q, err := query.New("q-mid", geometry.MustRect([]float64{10, -50}, []float64{40, 150}))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewLeaderValidation(t *testing.T) {
	cfg := Config{Spec: ml.PaperLR(1)}
	if _, err := NewLeader(cfg, nil, nil); err == nil {
		t.Fatal("accepted no clients")
	}
	d := lineDataset(60, 1, 0, 0, 10, 1)
	n1, _ := NewNode("same", d, 3, rng.New(1))
	n2, _ := NewNode("same", d, 3, rng.New(2))
	if _, err := NewLeader(cfg, nil, []Client{LocalClient{n1}, LocalClient{n2}}); err == nil {
		t.Fatal("accepted duplicate ids")
	}
	bad := Config{Spec: ml.Spec{Kind: "nope", InputDim: 1}}
	if _, err := NewLeader(bad, nil, []Client{LocalClient{n1}}); err == nil {
		t.Fatal("accepted bad spec")
	}
}

func TestLeaderSummariesCached(t *testing.T) {
	fleet := testFleet(t)
	s1, err := fleet.Leader.Summaries()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 4 {
		t.Fatalf("%d summaries", len(s1))
	}
	s2, _ := fleet.Leader.Summaries()
	if &s1[0] != &s2[0] {
		t.Fatal("summaries not cached")
	}
	fleet.Leader.InvalidateSummaries()
	s3, _ := fleet.Leader.Summaries()
	if len(s3) != 4 {
		t.Fatal("invalidate broke summaries")
	}
}

func TestExecuteQueryDriven(t *testing.T) {
	fleet := testFleet(t)
	sel := selection.QueryDriven{Epsilon: 0.6, TopL: 2}
	res, _, err := fleet.Leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: sel, Aggregation: WeightedAveraging})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selector != "query-driven" || res.Aggregation != WeightedAveraging {
		t.Fatalf("labels %s/%v", res.Selector, res.Aggregation)
	}
	if len(res.Participants) == 0 || len(res.Participants) > 2 {
		t.Fatalf("%d participants", len(res.Participants))
	}
	for _, p := range res.Participants {
		if p.NodeID == "node-3" {
			t.Fatal("selected the adversarial node")
		}
	}
	if res.Ensemble == nil || res.Ensemble.Size() != len(res.Participants) {
		t.Fatal("ensemble missing or wrong size")
	}
	// Data selectivity: query-driven must use fewer samples than the
	// selected nodes hold.
	if res.Stats.SamplesUsed >= res.Stats.SamplesSelectedNodes {
		t.Fatalf("selectivity failed: used %d of %d", res.Stats.SamplesUsed, res.Stats.SamplesSelectedNodes)
	}
	if res.Stats.SamplesAllNodes != 4*320 { // 400*0.8 train split each
		t.Fatalf("all-node total %d", res.Stats.SamplesAllNodes)
	}
	if res.Stats.TrainTime <= 0 || res.Stats.WallTime <= 0 {
		t.Fatal("timings not recorded")
	}
	if res.Stats.BytesUp <= 0 || res.Stats.BytesDown <= 0 {
		t.Fatal("byte accounting missing")
	}
	// The ensemble must predict the line y = 2x+1 inside the query.
	got := res.Ensemble.Predict([]float64{25})
	if math.Abs(got-51) > 8 {
		t.Fatalf("ensemble predicts %v at x=25, want ~51", got)
	}
	// Evaluate on held-out data restricted to the query.
	mse, samples, ok := EvaluateResult(res, fleet.Test)
	if !ok || samples == 0 {
		t.Fatal("no test samples in query")
	}
	if mse > 30 {
		t.Fatalf("query-driven test MSE %v", mse)
	}
}

func TestExecuteRandomVsQueryDrivenLoss(t *testing.T) {
	fleet := testFleet(t)
	q := midQuery(t)
	qd, _, err := fleet.Leader.Execute(ctxb(), Request{
		Query:       q,
		Selector:    selection.QueryDriven{Epsilon: 0.6, TopL: 2},
		Aggregation: WeightedAveraging,
	})
	if err != nil {
		t.Fatal(err)
	}
	qdMSE, _, _ := EvaluateResult(qd, fleet.Test)

	// Average the random baseline over several draws: with the
	// adversarial node in the pool it must do worse on average.
	var rndTotal float64
	const rounds = 5
	for i := 0; i < rounds; i++ {
		rnd, _, err := fleet.Leader.Execute(ctxb(), Request{Query: q, Selector: selection.Random{L: 2}, Aggregation: ModelAveraging})
		if err != nil {
			t.Fatal(err)
		}
		mse, _, ok := EvaluateResult(rnd, fleet.Test)
		if !ok {
			t.Fatal("no test data")
		}
		rndTotal += mse
	}
	rndMSE := rndTotal / rounds
	if qdMSE >= rndMSE {
		t.Fatalf("query-driven MSE %v not better than random %v", qdMSE, rndMSE)
	}
}

func TestExecuteGameTheory(t *testing.T) {
	fleet := testFleet(t)
	res, _, err := fleet.Leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: selection.GameTheory{L: 2}, Aggregation: ModelAveraging})
	if err != nil {
		t.Fatal(err)
	}
	// GT selects worst-loss nodes: the adversarial node-3 has data
	// most unlike the leader's, so it must be selected.
	found := false
	for _, p := range res.Participants {
		if p.NodeID == "node-3" {
			found = true
		}
	}
	if !found {
		t.Fatal("GT did not select the most-different node")
	}
}

func TestLeaderPreTest(t *testing.T) {
	fleet := testFleet(t)
	res, err := fleet.Leader.PreTest(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != selection.RegimeHeterogeneous {
		t.Fatalf("regime %v for a fleet with a flipped node", res.Regime)
	}
	if len(res.Losses) != 4 {
		t.Fatalf("%d losses", len(res.Losses))
	}
	// node-3 must have the highest loss under the leader's model.
	worst := ""
	worstLoss := -1.0
	for id, l := range res.Losses {
		if l > worstLoss {
			worst, worstLoss = id, l
		}
	}
	if worst != "node-3" {
		t.Fatalf("worst node %s, want node-3", worst)
	}
}

func TestLeaderPreTestHomogeneous(t *testing.T) {
	data := []*dataset.Dataset{
		lineDataset(300, 2, 1, 0, 50, 20),
		lineDataset(300, 2, 1, 0, 50, 21),
		lineDataset(300, 2, 1, 0, 50, 22),
	}
	cfg := Config{Spec: ml.PaperLR(1), Seed: 2}
	fleet, err := NewSimulatedFleet(data, cfg, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Leader.PreTest(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != selection.RegimeHomogeneous {
		t.Fatalf("regime %v (dispersion %v) for identical nodes", res.Regime, res.Dispersion)
	}
}

func TestExecuteNoCandidates(t *testing.T) {
	fleet := testFleet(t)
	far, _ := query.New("q-far", geometry.MustRect([]float64{1e6, 1e6}, []float64{2e6, 2e6}))
	if _, _, err := fleet.Leader.Execute(ctxb(), Request{
		Query:       far,
		Selector:    selection.QueryDriven{Epsilon: 0.1, TopL: 2},
		Aggregation: ModelAveraging,
	}); err == nil {
		t.Fatal("expected no-candidates failure")
	}
}

func TestFleetValidation(t *testing.T) {
	cfg := Config{Spec: ml.PaperLR(1)}
	if _, err := NewSimulatedFleet(nil, cfg, FleetOptions{}); err == nil {
		t.Fatal("accepted no datasets")
	}
	d1 := lineDataset(50, 1, 0, 0, 10, 30)
	bad := dataset.MustNew([]string{"a", "b"}, "b")
	bad.MustAppend([]float64{1, 2})
	if _, err := NewSimulatedFleet([]*dataset.Dataset{d1, bad}, cfg, FleetOptions{}); err == nil {
		t.Fatal("accepted mixed schemas")
	}
	if _, err := NewSimulatedFleet([]*dataset.Dataset{d1}, cfg, FleetOptions{TestFraction: 1}); err == nil {
		t.Fatal("accepted test fraction 1")
	}
	if _, err := NewSimulatedFleet([]*dataset.Dataset{d1}, cfg, FleetOptions{LeaderDataIndex: 5}); err == nil {
		t.Fatal("accepted bad leader index")
	}
}

func TestFleetSpace(t *testing.T) {
	fleet := testFleet(t)
	space, err := fleet.Space()
	if err != nil {
		t.Fatal(err)
	}
	if space.Dims() != 2 {
		t.Fatalf("space dims %d", space.Dims())
	}
	// Must span all node ranges, including the far node.
	if space.Min[0] > 0.5 || space.Max[0] < 299 {
		t.Fatalf("space x-range [%v,%v]", space.Min[0], space.Max[0])
	}
}

func TestStatsDataFraction(t *testing.T) {
	s := Stats{SamplesUsed: 25, SamplesAllNodes: 100}
	if s.DataFraction() != 0.25 {
		t.Fatalf("fraction %v", s.DataFraction())
	}
	if (Stats{}).DataFraction() != 0 {
		t.Fatal("empty stats fraction should be 0")
	}
}
