// Package gateway turns the batch-oriented federation leader into an
// online query-serving system: an HTTP/JSON API backed by a bounded
// worker-pool scheduler with admission control, singleflight-style
// coalescing of overlapping in-flight queries, and per-query deadlines
// propagated as context.Context all the way to the transport layer.
//
// The serving pipeline is
//
//	HTTP handler -> Scheduler.Submit (admission) -> worker pool
//	            -> Executor (federation.Leader) -> edge nodes
//
// Admission is a fixed-depth queue: when it is full the gateway sheds
// load immediately (HTTP 429 + Retry-After) instead of building an
// unbounded backlog — the fleet's training capacity, not the leader's
// memory, is the bottleneck worth protecting.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Sentinel errors surfaced by Submit; the HTTP layer maps them to
// status codes (429, 503).
var (
	// ErrQueueFull reports that the admission queue is at capacity.
	ErrQueueFull = errors.New("gateway: admission queue full")
	// ErrDraining reports that the scheduler is shutting down and no
	// longer accepts queries.
	ErrDraining = errors.New("gateway: draining, not accepting queries")
)

// Executor runs one admitted query and says which serving tier
// answered it (fresh training, exact reuse, approximate model-answer,
// ground-truth probe). The production implementations are
// LeaderExecutor and *region.Router; tests substitute controllable
// stubs.
type Executor interface {
	ExecuteQuery(ctx context.Context, q query.Query, sel selection.Selector, agg federation.Aggregation) (*federation.Result, federation.ServeKind, error)
}

// Request is one unit of work offered to the scheduler.
type Request struct {
	Query       query.Query
	Selector    selection.Selector
	Aggregation federation.Aggregation
	// Timeout bounds the query's execution once a worker picks it up
	// (0 uses the scheduler default). Queue wait does not consume the
	// budget; admission control bounds that separately.
	Timeout time.Duration
	// PlanKey, when non-empty, is the plan.Plan.Key() fingerprint the
	// submitter computed for this query (participants + training
	// directives at one advertisement epoch). Two live requests with
	// equal keys would execute identical work, so they coalesce
	// exactly — regardless of rectangle IoU.
	PlanKey string
}

// Config parameterizes a Scheduler.
type Config struct {
	// Workers is the worker-pool size (default 4). It caps how many
	// queries train on the fleet concurrently.
	Workers int
	// QueueDepth is the admission queue capacity (default 64).
	// Submissions beyond Workers in-flight plus QueueDepth queued
	// are rejected with ErrQueueFull.
	QueueDepth int
	// DefaultTimeout is the per-query execution budget applied when a
	// Request carries none (default 30s).
	DefaultTimeout time.Duration
	// CoalesceIoU enables request coalescing: a submission whose
	// rectangle has IoU >= CoalesceIoU with a live (queued or
	// executing) query under the same selector and aggregation
	// attaches to that query instead of enqueueing. 0 disables;
	// 1 coalesces only identical rectangles.
	CoalesceIoU float64
	// Executor runs admitted queries. Required.
	Executor Executor
	// Registry receives the scheduler's metrics (default
	// telemetry.Default()).
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	return c
}

// task is one admitted query plus its completion state. Coalesced
// submissions share a task; everything written before close(done) is
// visible to every waiter.
type task struct {
	req      Request
	enqueued time.Time

	done      chan struct{}
	res       *federation.Result
	kind      federation.ServeKind
	err       error
	queueWait time.Duration
	elapsed   time.Duration
}

// Ticket is a caller's handle on an admitted (possibly shared) task.
type Ticket struct {
	// Coalesced reports that this submission attached to an already
	// live query instead of enqueueing its own.
	Coalesced bool
	t         *task
}

// Outcome is a completed query as seen by one waiter.
type Outcome struct {
	Result *federation.Result
	// Kind is the serving tier that answered (fresh/exact/approx/
	// probe); Kind.Reused() reports an answer that trained nothing.
	Kind federation.ServeKind
	// Coalesced reports that the waiter shared another query's task.
	Coalesced bool
	// QueueWait is the time the task spent in the admission queue.
	QueueWait time.Duration
	// Elapsed is admission-to-completion wall time.
	Elapsed time.Duration
}

// Wait blocks until the task completes or ctx is done. Abandoning a
// wait does not cancel the task: coalesced peers may still depend on
// it, and its result warms the reuse cache either way.
func (tk *Ticket) Wait(ctx context.Context) (*Outcome, error) {
	select {
	case <-tk.t.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if tk.t.err != nil {
		return nil, tk.t.err
	}
	return &Outcome{
		Result:    tk.t.res,
		Kind:      tk.t.kind,
		Coalesced: tk.Coalesced,
		QueueWait: tk.t.queueWait,
		Elapsed:   tk.t.elapsed,
	}, nil
}

// Done returns a channel closed when the task completes.
func (tk *Ticket) Done() <-chan struct{} { return tk.t.done }

// schedMetrics holds the metric handles, resolved once at construction
// so the hot path is pure atomics.
type schedMetrics struct {
	queueDepth    *telemetry.Gauge
	inflight      *telemetry.Gauge
	admitted      *telemetry.Counter
	rejectedFull  *telemetry.Counter
	rejectedDrain *telemetry.Counter
	rejectedExp   *telemetry.Counter
	coalesced     *telemetry.Counter
	completedOK   *telemetry.Counter
	completedErr  *telemetry.Counter
	completedTime *telemetry.Counter
	e2eMS         *telemetry.Histogram
	e2eWin        *telemetry.RollingHistogram
	queueWaitMS   *telemetry.Histogram
}

func newSchedMetrics(reg *telemetry.Registry) *schedMetrics {
	reg.SetHelp("qens_gateway_queue_depth", "Queries waiting in the admission queue.")
	reg.SetHelp("qens_gateway_inflight", "Queries currently executing on the fleet.")
	reg.SetHelp("qens_gateway_admitted_total", "Queries admitted into the queue.")
	reg.SetHelp("qens_gateway_rejected_total", "Queries rejected at admission, by reason.")
	reg.SetHelp("qens_gateway_coalesced_total", "Submissions attached to an already in-flight query.")
	reg.SetHelp("qens_gateway_completed_total", "Finished queries, by status.")
	reg.SetHelp("qens_gateway_e2e_ms", "Admission-to-completion latency (ms).")
	reg.SetHelp("qens_gateway_queue_wait_ms", "Time spent queued before a worker picked the query up (ms).")
	e2e := reg.Histogram("qens_gateway_e2e_ms")
	win := e2e.Window()
	if win == nil {
		// The rolling view answers "how is the gateway behaving right
		// now" next to the cumulative series; /metrics renders it as
		// *_win_* companions and /v1/stats embeds it under latency.
		win = e2e.EnableWindow(defaultLatencyWindow, 6)
	}
	return &schedMetrics{
		queueDepth:    reg.Gauge("qens_gateway_queue_depth"),
		inflight:      reg.Gauge("qens_gateway_inflight"),
		admitted:      reg.Counter("qens_gateway_admitted_total"),
		rejectedFull:  reg.Counter("qens_gateway_rejected_total", telemetry.L("reason", "queue_full")...),
		rejectedDrain: reg.Counter("qens_gateway_rejected_total", telemetry.L("reason", "draining")...),
		rejectedExp:   reg.Counter("qens_gateway_rejected_total", telemetry.L("reason", "expired")...),
		coalesced:     reg.Counter("qens_gateway_coalesced_total"),
		completedOK:   reg.Counter("qens_gateway_completed_total", telemetry.L("status", "ok")...),
		completedErr:  reg.Counter("qens_gateway_completed_total", telemetry.L("status", "error")...),
		completedTime: reg.Counter("qens_gateway_completed_total", telemetry.L("status", "timeout")...),
		e2eMS:         e2e,
		e2eWin:        win,
		queueWaitMS:   reg.Histogram("qens_gateway_queue_wait_ms"),
	}
}

// defaultLatencyWindow is the rolling span of the "last minute" view
// on the gateway's end-to-end latency.
const defaultLatencyWindow = 60 * time.Second

// Scheduler is the gateway's admission-controlled worker pool.
type Scheduler struct {
	cfg Config

	queue      chan *task
	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	live     []*task // queued or executing; the coalescing scan set

	inflight atomic.Int64
	m        *schedMetrics
}

// NewScheduler builds and starts a scheduler; callers must Drain (or
// Close) it to release the workers.
func NewScheduler(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	if cfg.Executor == nil {
		return nil, errors.New("gateway: scheduler needs an executor")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("gateway: workers %d < 1", cfg.Workers)
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("gateway: queue depth %d < 1", cfg.QueueDepth)
	}
	if cfg.CoalesceIoU < 0 || cfg.CoalesceIoU > 1 {
		return nil, fmt.Errorf("gateway: coalesce IoU %v outside [0,1]", cfg.CoalesceIoU)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:        cfg,
		queue:      make(chan *task, cfg.QueueDepth),
		rootCtx:    ctx,
		rootCancel: cancel,
		m:          newSchedMetrics(cfg.Registry),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// coalesceMatch reports whether a live task can serve req: same
// selector mechanism, same aggregation, and either an exact plan-key
// match (the two queries would train the same participants on the same
// clusters at the same advertisement epoch) or rectangle IoU at or
// above the threshold.
func coalesceMatch(live, incoming Request, minIoU float64) bool {
	if live.Selector.Name() != incoming.Selector.Name() {
		return false
	}
	if live.Aggregation != incoming.Aggregation {
		return false
	}
	if live.PlanKey != "" && live.PlanKey == incoming.PlanKey {
		return true
	}
	if minIoU <= 0 {
		return false
	}
	if live.Query.Dims() != incoming.Query.Dims() {
		return false
	}
	return geometry.IoU(live.Query.Bounds, incoming.Query.Bounds) >= minIoU
}

// Submit offers a query for execution. It never blocks: the request is
// either coalesced onto a live task, enqueued, or rejected
// (ErrQueueFull / ErrDraining). A ctx that is already done is rejected
// with its error before touching the queue — an expired deadline must
// not consume fleet capacity.
func (s *Scheduler) Submit(ctx context.Context, req Request) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		s.m.rejectedExp.Inc()
		return nil, err
	}
	if req.Selector == nil {
		return nil, errors.New("gateway: nil selector")
	}
	if req.Query.Dims() == 0 {
		return nil, errors.New("gateway: query has no dimensions")
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.rejectedDrain.Inc()
		return nil, ErrDraining
	}
	if s.cfg.CoalesceIoU > 0 || req.PlanKey != "" {
		for _, t := range s.live {
			if coalesceMatch(t.req, req, s.cfg.CoalesceIoU) {
				s.mu.Unlock()
				s.m.coalesced.Inc()
				return &Ticket{t: t, Coalesced: true}, nil
			}
		}
	}
	t := &task{req: req, enqueued: time.Now(), done: make(chan struct{})}
	select {
	case s.queue <- t:
		s.live = append(s.live, t)
		s.mu.Unlock()
		s.m.admitted.Inc()
		s.m.queueDepth.Set(float64(len(s.queue)))
		return &Ticket{t: t}, nil
	default:
		s.mu.Unlock()
		s.m.rejectedFull.Inc()
		return nil, ErrQueueFull
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.run(t)
	}
}

// run executes one task and publishes its outcome.
func (s *Scheduler) run(t *task) {
	t.queueWait = time.Since(t.enqueued)
	s.m.queueWaitMS.Observe(float64(t.queueWait) / float64(time.Millisecond))
	s.m.queueDepth.Set(float64(len(s.queue)))
	s.m.inflight.Set(float64(s.inflight.Add(1)))

	timeout := t.req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	// The execution context hangs off the scheduler root, not any
	// individual submitter: coalesced peers (and the reuse cache)
	// depend on the task even when its originator walks away.
	ctx, cancel := context.WithTimeout(s.rootCtx, timeout)
	t.res, t.kind, t.err = s.cfg.Executor.ExecuteQuery(ctx, t.req.Query, t.req.Selector, t.req.Aggregation)
	cancel()
	t.elapsed = time.Since(t.enqueued)

	s.mu.Lock()
	for i, lt := range s.live {
		if lt == t {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	s.mu.Unlock()

	// Record before publishing: a waiter released by close(t.done)
	// must already see this task in the completion counters, the
	// inflight gauge and the latency histogram.
	s.m.inflight.Set(float64(s.inflight.Add(-1)))
	s.m.e2eMS.Observe(float64(t.elapsed) / float64(time.Millisecond))
	switch {
	case t.err == nil:
		s.m.completedOK.Inc()
	case errors.Is(t.err, context.DeadlineExceeded):
		s.m.completedTime.Inc()
	default:
		s.m.completedErr.Inc()
	}
	close(t.done)
}

// Draining reports whether the scheduler has begun shutting down.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission (new Submits return ErrDraining), lets queued
// and in-flight queries finish, and releases the workers. If ctx
// expires first, the remaining executions are canceled and Drain
// returns ctx.Err() once the workers exit. Drain is idempotent.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Submit holds mu across its send, so closing under mu
		// cannot race a send on the closed channel.
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.rootCancel()
		<-done
		return ctx.Err()
	}
}

// Close force-drains: in-flight executions are canceled immediately.
// Intended for tests and fatal shutdown paths.
func (s *Scheduler) Close() {
	s.rootCancel()
	_ = s.Drain(context.Background())
}

// Stats is a point-in-time scheduler snapshot, surfaced by /v1/stats.
type Stats struct {
	Workers       int   `json:"workers"`
	QueueCapacity int   `json:"queue_capacity"`
	QueueDepth    int   `json:"queue_depth"`
	InFlight      int   `json:"inflight"`
	Draining      bool  `json:"draining"`
	Admitted      int64 `json:"admitted"`
	RejectedFull  int64 `json:"rejected_queue_full"`
	RejectedDrain int64 `json:"rejected_draining"`
	RejectedExp   int64 `json:"rejected_expired"`
	Coalesced     int64 `json:"coalesced"`
	CompletedOK   int64 `json:"completed_ok"`
	CompletedErr  int64 `json:"completed_error"`
	CompletedTime int64 `json:"completed_timeout"`
}

// SchedStats snapshots the scheduler counters.
func (s *Scheduler) SchedStats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return Stats{
		Workers:       s.cfg.Workers,
		QueueCapacity: s.cfg.QueueDepth,
		QueueDepth:    len(s.queue),
		InFlight:      int(s.inflight.Load()),
		Draining:      draining,
		Admitted:      s.m.admitted.Value(),
		RejectedFull:  s.m.rejectedFull.Value(),
		RejectedDrain: s.m.rejectedDrain.Value(),
		RejectedExp:   s.m.rejectedExp.Value(),
		Coalesced:     s.m.coalesced.Value(),
		CompletedOK:   s.m.completedOK.Value(),
		CompletedErr:  s.m.completedErr.Value(),
		CompletedTime: s.m.completedTime.Value(),
	}
}

// LatencySnapshot returns the end-to-end latency histogram snapshot
// (admission to completion, milliseconds).
func (s *Scheduler) LatencySnapshot() telemetry.HistogramSnapshot {
	return s.m.e2eMS.Snapshot()
}

// LatencyWindow returns the rolling last-window view of the same
// end-to-end latency (see telemetry.RollingHistogram).
func (s *Scheduler) LatencyWindow() telemetry.WindowStats {
	return s.m.e2eWin.Stats()
}

// LeaderExecutor adapts a federation.Leader (optionally fronted by a
// ReuseCache) to the Executor interface.
type LeaderExecutor struct {
	Leader *federation.Leader
	// Cache, when non-nil, serves high-IoU repeats without training.
	Cache *federation.ReuseCache
}

// ExecuteQuery implements Executor: the full adaptive pipeline (exact
// reuse → approximate model-answer → probe → fresh training) when a
// cache is installed, plain execution otherwise.
func (e LeaderExecutor) ExecuteQuery(ctx context.Context, q query.Query, sel selection.Selector, agg federation.Aggregation) (*federation.Result, federation.ServeKind, error) {
	return e.Leader.Execute(ctx, federation.Request{Query: q, Selector: sel, Aggregation: agg, Cache: e.Cache})
}
