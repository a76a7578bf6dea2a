package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/cluster"
	"qens/internal/federation"
	"qens/internal/region"
	"qens/internal/registry"
	"qens/internal/transport"
)

// The traced run times three seams from outside the program: the
// gateway's http.Handler, every federation.Client the leader calls,
// and every region.Service the root router calls. Records are kept in
// memory and read after the timed phases.

// interval is when a call ran.
type interval struct {
	start time.Time
	dur   time.Duration
}

func (iv interval) when() interval { return iv }

// since is the interval from t0 until now.
func since(t0 time.Time) interval { return interval{t0, time.Since(t0)} }

// rpcCall is one call through a federation.Client.
type rpcCall struct {
	interval
	kind    string // train, summary, evaluate
	node    string
	trace   string        // the query's trace id (train calls)
	train   time.Duration // node-reported TrainTime
	queue   time.Duration // node.queue span
	fit     time.Duration // node.fit span
	samples int
	stale   bool // the node trained on a newer summary epoch than the registry held
	failed  bool
}

// regionCall is one call through a region.Service.
type regionCall struct {
	interval
	kind  string               // info, plan, train
	query string               // the query id (plan, train)
	nodes []region.RoundResult // train results
}

// recorder collects seam records while on.
type recorder struct {
	on atomic.Bool

	mu      sync.Mutex
	handler map[string]time.Duration // request id → handler time
	rpcs    []rpcCall
	regions []regionCall
	pending map[string]pushSeen // node → newest push not yet visible in a snapshot
	lags    []float64           // push received → snapshot shows its epoch, ms
}

type pushSeen struct {
	epoch uint64
	at    time.Time
}

func newRecorder() *recorder {
	return &recorder{handler: map[string]time.Duration{}, pending: map[string]pushSeen{}}
}

func (r *recorder) addRPC(c rpcCall) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.rpcs = append(r.rpcs, c)
	r.mu.Unlock()
}

func (r *recorder) addRegion(c regionCall) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.regions = append(r.regions, c)
	r.mu.Unlock()
}

// pushReceived notes a summary push as it arrives from a node.
func (r *recorder) pushReceived(node string, epoch uint64) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	if p, ok := r.pending[node]; !ok || epoch > p.epoch {
		r.pending[node] = pushSeen{epoch: epoch, at: time.Now()}
	}
	r.mu.Unlock()
}

// published runs on every registry publication: each pending push whose
// epoch the new snapshot shows has been applied.
func (r *recorder) published(snap *registry.Snapshot) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for node, p := range r.pending {
		if snap.NodeSummaryEpoch(node) >= p.epoch {
			r.lags = append(r.lags, ms(now.Sub(p.at)))
			delete(r.pending, node)
		}
	}
}

// tracedClient times a transport.Client at the federation.Client seam.
// It forwards the optional DeltaSummaryClient and PushSummaryClient
// capabilities: the leader type-asserts them, so a wrapper without
// them would silently turn delta refresh and push off.
type tracedClient struct {
	inner *transport.Client
	rec   *recorder
	reg   atomic.Pointer[registry.Registry] // set once the leader exists
}

var (
	_ federation.Client             = (*tracedClient)(nil)
	_ federation.DeltaSummaryClient = (*tracedClient)(nil)
	_ federation.PushSummaryClient  = (*tracedClient)(nil)
)

func (c *tracedClient) ID() string { return c.inner.ID() }

func (c *tracedClient) Summary(ctx context.Context) (cluster.NodeSummary, error) {
	t0 := time.Now()
	s, err := c.inner.Summary(ctx)
	c.rec.addRPC(rpcCall{interval: since(t0), kind: "summary", node: c.ID(), failed: err != nil})
	return s, err
}

func (c *tracedClient) SummaryIfChanged(ctx context.Context, known uint64) (cluster.NodeSummary, bool, error) {
	t0 := time.Now()
	s, unchanged, err := c.inner.SummaryIfChanged(ctx, known)
	c.rec.addRPC(rpcCall{interval: since(t0), kind: "summary", node: c.ID(), failed: err != nil})
	return s, unchanged, err
}

func (c *tracedClient) SubscribeSummaries(ctx context.Context, handler func(cluster.NodeSummary)) (bool, error) {
	return c.inner.SubscribeSummaries(ctx, func(s cluster.NodeSummary) {
		c.rec.pushReceived(s.NodeID, s.Epoch)
		handler(s)
	})
}

func (c *tracedClient) Train(ctx context.Context, req federation.TrainRequest) (federation.TrainResponse, error) {
	var known uint64
	if reg := c.reg.Load(); reg != nil {
		if snap, ok := reg.Current(); ok {
			known = snap.NodeSummaryEpoch(c.ID())
		}
	}
	t0 := time.Now()
	resp, err := c.inner.Train(ctx, req)
	call := rpcCall{
		interval: since(t0), kind: "train", node: c.ID(), trace: req.TraceID,
		train: resp.TrainTime, samples: resp.SamplesUsed, failed: err != nil,
		stale: err == nil && resp.SummaryEpoch > known,
	}
	for _, sp := range resp.Spans {
		switch sp.Name {
		case "node.queue":
			call.queue += time.Duration(sp.DurationNS)
		case "node.fit":
			call.fit += time.Duration(sp.DurationNS)
		}
	}
	c.rec.addRPC(call)
	return resp, err
}

func (c *tracedClient) Evaluate(ctx context.Context, req federation.EvalRequest) (federation.EvalResponse, error) {
	t0 := time.Now()
	resp, err := c.inner.Evaluate(ctx, req)
	c.rec.addRPC(rpcCall{interval: since(t0), kind: "evaluate", node: c.ID(), failed: err != nil})
	return resp, err
}

// tracedRegion times a transport.RegionClient at the region.Service
// seam.
type tracedRegion struct {
	inner *transport.RegionClient
	rec   *recorder
}

var _ region.Service = (*tracedRegion)(nil)

func (s *tracedRegion) ID() string { return s.inner.ID() }

func (s *tracedRegion) Info(ctx context.Context) (region.Info, error) {
	t0 := time.Now()
	info, err := s.inner.Info(ctx)
	s.rec.addRegion(regionCall{interval: since(t0), kind: "info"})
	return info, err
}

func (s *tracedRegion) Plan(ctx context.Context, req region.PlanRequest) (region.PlanResponse, error) {
	t0 := time.Now()
	resp, err := s.inner.Plan(ctx, req)
	s.rec.addRegion(regionCall{interval: since(t0), kind: "plan", query: req.Query.ID})
	return resp, err
}

func (s *tracedRegion) Train(ctx context.Context, req region.TrainRequest) (region.TrainResponse, error) {
	t0 := time.Now()
	resp, err := s.inner.Train(ctx, req)
	s.rec.addRegion(regionCall{interval: since(t0), kind: "train", query: req.QueryID, nodes: resp.Results})
	return resp, err
}

// Stats is the operator surface (the benchmark's own /v1/stats reads),
// not part of serving a query, so it is not recorded.
func (s *tracedRegion) Stats(ctx context.Context) (region.Stats, error) { return s.inner.Stats(ctx) }

// tracedHandler times the gateway's http.Handler per request id.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(reqHeader)
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	if id == "" || !h.rec.on.Load() {
		return
	}
	d := time.Since(t0)
	h.rec.mu.Lock()
	h.rec.handler[id] = d
	h.rec.mu.Unlock()
}
