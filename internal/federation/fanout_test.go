package federation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qens/internal/ml"
	"qens/internal/rng"
	"qens/internal/selection"
)

// errInjected is the failure faultClient returns.
var errInjected = errors.New("injected training failure")

// fault is one node's deterministic misbehaviour in Train.
type fault struct {
	delay time.Duration // sleep before training (cut short by ctx)
	fail  bool          // return errInjected instead of training
	hang  bool          // block until the round's context ends
}

// roundGauge counts Train calls in flight across a fleet and keeps the
// peak; entered, when non-nil, receives a token as each call starts.
type roundGauge struct {
	calls, inflight, peak atomic.Int64
	entered               chan struct{}
}

// faultClient wraps a real in-process node and injects its fault into
// every Train call.
type faultClient struct {
	LocalClient
	fault fault
	gauge *roundGauge
}

func (c faultClient) Train(ctx context.Context, req TrainRequest) (TrainResponse, error) {
	g := c.gauge
	g.calls.Add(1)
	n := g.inflight.Add(1)
	defer g.inflight.Add(-1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	if c.fault.delay > 0 {
		select {
		case <-time.After(c.fault.delay):
		case <-ctx.Done():
			return TrainResponse{}, ctx.Err()
		}
	}
	switch {
	case c.fault.hang:
		<-ctx.Done()
		return TrainResponse{}, ctx.Err()
	case c.fault.fail:
		return TrainResponse{}, errInjected
	}
	return c.LocalClient.Train(ctx, req)
}

// faultFleet builds a leader over n small nodes on one line, node i
// misbehaving as faults[i] says.
func faultFleet(t *testing.T, n int, tolerate bool, faults map[int]fault, g *roundGauge) *Leader {
	t.Helper()
	clients := make([]Client, n)
	for i := range clients {
		node, err := NewNode(fmt.Sprintf("node-%d", i), lineDataset(40, 2, 1, 0, 60, uint64(100+i)), 2, rng.New(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = faultClient{LocalClient: LocalClient{Node: node}, fault: faults[i], gauge: g}
	}
	l, err := NewLeader(Config{Spec: ml.PaperLR(1), ClusterK: 2, LocalEpochs: 1, Seed: 3, TolerateFailures: tolerate}, nil, clients)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func allNodes(t *testing.T) Request {
	return Request{Query: midQuery(t), Selector: selection.AllNodes{}, Aggregation: ModelAveraging}
}

// assertNoFanOutGoroutines fails if any training round goroutine
// outlives the query that started it.
func assertNoFanOutGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "federation.(*Leader).fanOut") && !strings.Contains(stacks, "federation.faultClient.Train") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("training goroutines outlived their query:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// healthFailures maps node id to the failures its health tracker holds.
func healthFailures(l *Leader) map[string]int64 {
	out := map[string]int64{}
	for _, h := range l.Health().Report(nil) {
		out[h.NodeID] = h.Failures
	}
	return out
}

// TestFanOutFirstFailureCancelsSiblings: without tolerance the first
// failure releases a sibling that would otherwise hang until the
// deadline, the error is the failing node's, and the cancelled sibling
// is not charged a failure.
func TestFanOutFirstFailureCancelsSiblings(t *testing.T) {
	for i := 0; i < 10; i++ {
		l := faultFleet(t, 4, false, map[int]fault{
			1: {fail: true},
			2: {hang: true},
		}, &roundGauge{})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		_, _, err := l.Execute(ctx, allNodes(t))
		cancel()
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v, want the injected failure", err)
		}
		if errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "node-1") {
			t.Fatalf("err = %v: must name node-1 and not a cancelled sibling", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("hanging sibling held the query for %v", d)
		}
		failures := healthFailures(l)
		if failures["node-1"] != 1 {
			t.Fatalf("node-1 failures %d, want 1", failures["node-1"])
		}
		if failures["node-2"] != 0 {
			t.Fatalf("the leader cancelled node-2, yet it was charged %d failures", failures["node-2"])
		}
		assertNoFanOutGoroutines(t)
	}
}

// TestFanOutToleratesFailures: with tolerance every round completes,
// only the erroring node is listed in Failed, and the survivors
// aggregate.
func TestFanOutToleratesFailures(t *testing.T) {
	g := &roundGauge{}
	l := faultFleet(t, 4, true, map[int]fault{
		0: {delay: 5 * time.Millisecond},
		2: {fail: true},
	}, g)
	res, kind, err := l.Execute(context.Background(), allNodes(t))
	if err != nil || kind != ServeFresh {
		t.Fatalf("kind %v err %v", kind, err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != "node-2" {
		t.Fatalf("Failed = %v, want [node-2]", res.Failed)
	}
	if len(res.LocalParams) != 3 || res.Ensemble.Size() != 3 {
		t.Fatalf("%d local models, ensemble of %d; want 3 survivors", len(res.LocalParams), res.Ensemble.Size())
	}
	if g.calls.Load() != 4 || len(res.NodeRounds) != 4 {
		t.Fatalf("%d Train calls, %d node rounds; want every round run", g.calls.Load(), len(res.NodeRounds))
	}
	assertNoFanOutGoroutines(t)
}

// TestFanOutParentCancel: cancelling the caller's context while every
// round hangs returns context.Canceled, with or without tolerance.
func TestFanOutParentCancel(t *testing.T) {
	for _, tolerate := range []bool{false, true} {
		g := &roundGauge{entered: make(chan struct{}, 3)}
		l := faultFleet(t, 3, tolerate, map[int]fault{0: {hang: true}, 1: {hang: true}, 2: {hang: true}}, g)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-g.entered:
			case <-ctx.Done():
			}
			cancel()
		}()
		_, _, err := l.Execute(ctx, allNodes(t))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("tolerate=%v: err = %v, want context.Canceled", tolerate, err)
		}
		assertNoFanOutGoroutines(t)
	}
}

// TestFanOutInFlightCap: an AllNodes plan over more nodes than the cap
// trains every node, never more than maxInFlightRounds at once.
func TestFanOutInFlightCap(t *testing.T) {
	n := maxInFlightRounds + 6
	faults := map[int]fault{}
	for i := 0; i < n; i++ {
		faults[i] = fault{delay: 20 * time.Millisecond}
	}
	g := &roundGauge{}
	l := faultFleet(t, n, false, faults, g)
	res, _, err := l.Execute(context.Background(), allNodes(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalParams) != n || g.calls.Load() != int64(n) {
		t.Fatalf("%d local models from %d Train calls, want %d", len(res.LocalParams), g.calls.Load(), n)
	}
	if p := g.peak.Load(); p > maxInFlightRounds || p < 2 {
		t.Fatalf("peak in-flight Train calls %d, want within [2, %d]", p, maxInFlightRounds)
	}
	assertNoFanOutGoroutines(t)
}

// TestFanOutRoundsAbortOnFailure: FedAvg rounds abort on a failure even
// when the leader tolerates failed single rounds.
func TestFanOutRoundsAbortOnFailure(t *testing.T) {
	l := faultFleet(t, 3, true, map[int]fault{1: {fail: true}}, &roundGauge{})
	req := allNodes(t)
	req.Rounds = 3
	if _, _, err := l.Execute(context.Background(), req); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	assertNoFanOutGoroutines(t)
}
