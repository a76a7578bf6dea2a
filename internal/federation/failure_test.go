package federation

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/ml"
	"qens/internal/rng"
	"qens/internal/selection"
)

// flakyClient wraps a Client and fails training after failAfter calls.
type flakyClient struct {
	Client
	calls     int
	failAfter int
}

func (f *flakyClient) Train(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	f.calls++
	if f.calls > f.failAfter {
		return TrainResponse{}, errors.New("simulated edge outage")
	}
	return f.Client.Train(ctx, req)
}

// deadClient fails everything after construction.
type deadClient struct{ id string }

func (d deadClient) ID() string { return d.id }
func (d deadClient) Summary(context.Context) (cluster.NodeSummary, error) {
	return cluster.NodeSummary{}, errors.New("dead")
}
func (d deadClient) Train(context.Context, TrainRequest) (TrainResponse, error) {
	return TrainResponse{}, errors.New("dead")
}
func (d deadClient) Evaluate(context.Context, EvalRequest) (EvalResponse, error) {
	return EvalResponse{}, errors.New("dead")
}

func failureFleet(t *testing.T, tolerate bool) (*Leader, []*Node, *dataset.Dataset) {
	t.Helper()
	data := []*dataset.Dataset{
		lineDataset(300, 2, 1, 0, 40, 60),
		lineDataset(300, 2, 1, 10, 50, 61),
		lineDataset(300, 2, 1, 20, 60, 62),
	}
	test := lineDataset(200, 2, 1, 0, 60, 63)
	var nodes []*Node
	var clients []Client
	for i, d := range data {
		n, err := NewNode(fmt.Sprintf("node-%d", i), d, 4, rng.New(uint64(70+i)))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		clients = append(clients, LocalClient{n})
	}
	// node-1 goes down at its first training request.
	clients[1] = &flakyClient{Client: clients[1], failAfter: 0}
	leader, err := NewLeader(Config{
		Spec: ml.PaperLR(1), ClusterK: 4, LocalEpochs: 10,
		TolerateFailures: tolerate, Seed: 3,
	}, data[0], clients)
	if err != nil {
		t.Fatal(err)
	}
	return leader, nodes, test
}

func TestExecuteAbortsOnFailureByDefault(t *testing.T) {
	leader, _, _ := failureFleet(t, false)
	_, _, err := leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: selection.AllNodes{}, Aggregation: ModelAveraging})
	if err == nil {
		t.Fatal("expected failure to abort the query")
	}
}

func TestExecuteToleratesFailures(t *testing.T) {
	leader, _, test := failureFleet(t, true)
	res, _, err := leader.Execute(ctxb(), Request{Query: midQuery(t), Selector: selection.AllNodes{}, Aggregation: ModelAveraging})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != "node-1" {
		t.Fatalf("failed list %v, want [node-1]", res.Failed)
	}
	if res.Ensemble.Size() != 2 {
		t.Fatalf("ensemble size %d, want 2 survivors", res.Ensemble.Size())
	}
	// The surviving ensemble must still produce a usable model.
	mse, n, ok := EvaluateResult(res, test)
	if !ok || n == 0 {
		t.Fatal("no test data")
	}
	if mse > 50 {
		t.Fatalf("degraded ensemble MSE %v", mse)
	}
}

func TestExecuteFailsWhenAllParticipantsFail(t *testing.T) {
	d := lineDataset(100, 1, 0, 0, 10, 64)
	n, err := NewNode("alive", d, 3, rng.New(64))
	if err != nil {
		t.Fatal(err)
	}
	leader, err := NewLeader(Config{
		Spec: ml.PaperLR(1), TolerateFailures: true, Seed: 1,
	}, nil, []Client{&flakyClient{Client: LocalClient{n}, failAfter: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := leader.Execute(ctxb(), Request{
		Query:       midQuery(t),
		Selector:    selection.AllNodes{},
		Aggregation: ModelAveraging,
	}); err == nil {
		t.Fatal("all-failed query must error even with tolerance")
	}
}

func TestSummariesFailFast(t *testing.T) {
	d := lineDataset(100, 1, 0, 0, 10, 65)
	n, _ := NewNode("alive", d, 3, rng.New(65))
	leader, err := NewLeader(Config{Spec: ml.PaperLR(1), Seed: 1},
		nil, []Client{LocalClient{n}, deadClient{id: "dead"}})
	if err != nil {
		t.Fatal(err)
	}
	// Advertisement collection is a roster-level operation: a dead
	// node must surface immediately, tolerance or not.
	if _, err := leader.Summaries(); err == nil {
		t.Fatal("summaries succeeded with a dead node")
	}
}
