package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qens/internal/cluster"
	"qens/internal/dataset"
	"qens/internal/fleet"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/plan"
	"qens/internal/query"
	"qens/internal/registry"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Config parameterizes a federation.
type Config struct {
	// Spec is the model architecture and hyper-parameters every
	// participant trains (Table III).
	Spec ml.Spec
	// ClusterK is the per-node k-means K (the paper fixes 5).
	ClusterK int
	// LocalEpochs is the paper's E: local iterations per supporting
	// cluster (default 5).
	LocalEpochs int
	// TolerateFailures makes a single-round Execute skip participants
	// whose training round fails (network drop, bad state) instead of
	// aborting the query, as long as at least one participant
	// succeeds. The failed node ids are recorded in Result.Failed.
	// FedAvg rounds always abort on a failure.
	TolerateFailures bool
	// Seed drives the leader's stochastic choices (random
	// selection, model init).
	Seed uint64
	// SummaryTTL ages out the cached advertisements: a query planned
	// after the TTL re-fetches the fleet and bumps the registry
	// epoch. 0 (the default) keeps advertisements until an explicit
	// InvalidateSummaries or a node-signalled drift — the legacy
	// behaviour.
	SummaryTTL time.Duration
	// SummaryDelta switches registry refreshes after the first from
	// full-fleet summary re-fetch to per-node epoch-conditional
	// deltas: nodes whose advertisement epoch is unchanged answer a
	// tiny "unchanged" probe instead of shipping their summary, so a
	// refresh moves bytes proportional to churn, not fleet size.
	// Participants that don't implement DeltaSummaryClient degrade to
	// a full Summary fetch transparently.
	SummaryDelta bool
	// RebuildChurn overrides the registry's churn threshold above
	// which a delta refresh rebuilds the spatial index from scratch
	// instead of patching it (default registry.DefaultRebuildChurn).
	// Ignored without SummaryDelta.
	RebuildChurn float64
}

func (c Config) withDefaults() Config {
	if c.ClusterK == 0 {
		c.ClusterK = 5
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 5
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("federation: %w", err)
	}
	if c.ClusterK < 1 {
		return fmt.Errorf("federation: cluster K %d < 1", c.ClusterK)
	}
	if c.LocalEpochs < 1 {
		return fmt.Errorf("federation: local epochs %d < 1", c.LocalEpochs)
	}
	if c.SummaryTTL < 0 {
		return fmt.Errorf("federation: negative summary TTL %v", c.SummaryTTL)
	}
	return nil
}

// Leader orchestrates per-query distributed learning (§III-A): it
// holds the participant roster, collects their cluster advertisements
// into a versioned registry, plans participant selection per incoming
// query (internal/plan), distributes the global model, and aggregates
// the returned local models.
//
// The per-query hot path is a Plan/Execute pipeline: the pure-CPU
// planning stage reads a lock-free registry snapshot (no mutex at
// steady state), and only the I/O-bound execution stage talks to the
// fleet. Everything derived from an advertisement epoch — the warm-up
// model, reuse-cache entries, plan fingerprints — is keyed to that
// epoch and dies with it when the registry refreshes.
//
// A Leader is safe for concurrent callers: Execute may run
// simultaneously from many goroutines, with or without a cache or
// FedAvg rounds (the serving path in internal/gateway depends on this).
// The shared RNG is internally locked (see internal/rng), the summary
// registry publishes copy-on-write snapshots, and the stateful
// selectors (Fairness, Contribution, Adaptive) lock internally.
type Leader struct {
	cfg     Config
	data    *dataset.Dataset // the leader's own local data (§II pre-test)
	clients []Client
	src     *rng.Source

	reg     *registry.Registry // versioned advertisement store
	planner *plan.Planner      // pure-CPU planning stage

	warmupMu    sync.Mutex
	warmup      *ml.Params // cached §II warm-up model
	warmupEpoch uint64     // registry epoch the warm-up was fit under

	tracer  *telemetry.Tracer // nil: fall back to telemetry.DefaultTracer
	metrics *leaderMetrics
	health  *fleet.Tracker // per-node round latency/error EWMAs

	push leaderPush // summary push subscriptions (see push.go)
}

// NewLeader builds a leader over the given participants. leaderData is
// the leader's own local dataset, used only for the §II warm-up
// pre-test (GameTheory selection and PreTest); it may be nil if those
// are never used.
func NewLeader(cfg Config, leaderData *dataset.Dataset, clients []Client) (*Leader, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, errors.New("federation: leader needs at least one participant")
	}
	seen := map[string]bool{}
	for _, c := range clients {
		if seen[c.ID()] {
			return nil, fmt.Errorf("federation: duplicate participant id %q", c.ID())
		}
		seen[c.ID()] = true
	}
	l := &Leader{
		cfg: cfg, data: leaderData, clients: clients, src: rng.New(cfg.Seed),
		metrics: newLeaderMetrics(telemetry.Default()),
		health:  fleet.NewTracker(telemetry.Default()),
	}
	regCfg := registry.Config{
		Fetch: l.fetchSummaries,
		TTL:   cfg.SummaryTTL,
	}
	if cfg.SummaryDelta {
		regCfg.FetchDelta = l.fetchSummaryDeltas
		regCfg.RebuildChurn = cfg.RebuildChurn
	}
	reg, err := registry.New(regCfg)
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	l.reg = reg
	l.planner = plan.NewPlanner(reg)
	return l, nil
}

// fetchSummaries is the registry's FetchFunc: one advertisement per
// participant, in roster order, validated before publication.
func (l *Leader) fetchSummaries(ctx context.Context) ([]cluster.NodeSummary, error) {
	out := make([]cluster.NodeSummary, 0, len(l.clients))
	for _, c := range l.clients {
		s, err := c.Summary(ctx)
		if err != nil {
			return nil, fmt.Errorf("federation: summary from %s: %w", c.ID(), err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("federation: summary from %s: %w", c.ID(), err)
		}
		out = append(out, s)
	}
	return out, nil
}

// fetchSummaryDeltas is the registry's DeltaFetchFunc: one delta per
// participant in roster order. Nodes whose advertisement epoch matches
// the registry's known epoch answer with a summary-free "unchanged"
// probe; everyone else (and every client without the DeltaSummaryClient
// capability) ships a validated full summary.
func (l *Leader) fetchSummaryDeltas(ctx context.Context, known []registry.NodeEpoch) ([]registry.Delta, error) {
	if len(known) != len(l.clients) {
		return nil, fmt.Errorf("federation: delta refresh over %d known epochs, roster has %d", len(known), len(l.clients))
	}
	out := make([]registry.Delta, 0, len(l.clients))
	for i, c := range l.clients {
		if known[i].NodeID != c.ID() {
			return nil, fmt.Errorf("federation: delta roster mismatch at %d: %s vs %s", i, known[i].NodeID, c.ID())
		}
		var (
			s         cluster.NodeSummary
			unchanged bool
			err       error
		)
		if dc, ok := c.(DeltaSummaryClient); ok {
			s, unchanged, err = dc.SummaryIfChanged(ctx, known[i].Epoch)
		} else {
			s, err = c.Summary(ctx)
		}
		if err != nil {
			return nil, fmt.Errorf("federation: summary from %s: %w", c.ID(), err)
		}
		if unchanged {
			out = append(out, registry.Delta{NodeID: c.ID(), Unchanged: true})
			continue
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("federation: summary from %s: %w", c.ID(), err)
		}
		out = append(out, registry.Delta{NodeID: c.ID(), Summary: s})
	}
	return out, nil
}

// Config returns the leader's configuration (with defaults applied).
func (l *Leader) Config() Config { return l.cfg }

// NodeIDs returns the participant ids in roster order.
func (l *Leader) NodeIDs() []string {
	out := make([]string, len(l.clients))
	for i, c := range l.clients {
		out[i] = c.ID()
	}
	return out
}

// Summaries fetches (and caches) every participant's cluster
// advertisement — the one-off O(1)-per-node communication of §III-C.
func (l *Leader) Summaries() ([]cluster.NodeSummary, error) {
	return l.SummariesContext(context.Background())
}

// SummariesContext is Summaries with deadline/cancellation support.
// It resolves the current registry snapshot (fetching the fleet only
// when none exists, the TTL lapsed, or the epoch was invalidated);
// concurrent first callers wait for one round of advertisements
// instead of each polling the fleet.
func (l *Leader) SummariesContext(ctx context.Context) ([]cluster.NodeSummary, error) {
	snap, err := l.reg.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	return snap.Summaries, nil
}

// InvalidateSummaries marks the cached advertisements stale (call
// after node data changes): the next query re-fetches the fleet and
// bumps the registry epoch, flushing every epoch-keyed derived cache.
func (l *Leader) InvalidateSummaries() {
	l.reg.Invalidate()
}

// Registry exposes the leader's versioned summary store (epoch
// inspection, background refresh, drift signalling).
func (l *Leader) Registry() *registry.Registry { return l.reg }

// Planner exposes the pure-CPU planning stage.
func (l *Leader) Planner() *plan.Planner { return l.planner }

// Health exposes the leader's fleet health tracker: per-node round
// latency/error EWMAs fed by every executed round, scored for the
// gateway's /v1/fleet endpoint and the qens_fleet_* gauges.
func (l *Leader) Health() *fleet.Tracker { return l.health }

// SummaryEpoch returns the current advertisement epoch (0 before the
// first fetch). Lock-free.
func (l *Leader) SummaryEpoch() uint64 { return l.reg.Epoch() }

// client looks up a participant by id.
func (l *Leader) client(id string) (Client, error) {
	for _, c := range l.clients {
		if c.ID() == id {
			return c, nil
		}
	}
	return nil, fmt.Errorf("federation: unknown participant %q", id)
}

// warmupParams lazily trains the leader's local warm-up model used by
// the §II pre-test and GameTheory selection. The fit is serialized so
// concurrent queries share one warm-up model, and the cache is keyed
// to the registry epoch: when the advertisements refresh (node data
// changed), the stale warm-up dies with them and the next pre-test
// refits against the new regime.
func (l *Leader) warmupParams() (ml.Params, error) {
	epoch := l.reg.Epoch()
	l.warmupMu.Lock()
	defer l.warmupMu.Unlock()
	if l.warmup != nil && l.warmupEpoch == epoch {
		return *l.warmup, nil
	}
	if l.data == nil || l.data.Len() == 0 {
		return ml.Params{}, errors.New("federation: leader has no local data for the pre-test warm-up")
	}
	spec := l.cfg.Spec
	spec.Seed = uint64(l.src.Int63())
	model, err := spec.New()
	if err != nil {
		return ml.Params{}, err
	}
	x, y := l.data.XY()
	if err := model.Fit(x, y); err != nil {
		return ml.Params{}, fmt.Errorf("federation: warm-up fit: %w", err)
	}
	p := model.Params()
	l.warmup = &p
	l.warmupEpoch = epoch
	return p, nil
}

// evaluateWarmup scores the warm-up model on one node's local data.
func (l *Leader) evaluateWarmup(ctx context.Context, nodeID string) (float64, error) {
	params, err := l.warmupParams()
	if err != nil {
		return 0, err
	}
	c, err := l.client(nodeID)
	if err != nil {
		return 0, err
	}
	resp, err := c.Evaluate(ctx, EvalRequest{Spec: l.cfg.Spec, Params: params})
	if err != nil {
		return 0, err
	}
	l.signalEpoch(nodeID, resp.SummaryEpoch)
	return resp.MSE, nil
}

// signalEpoch feeds a node-reported advertisement version into the
// registry's drift detection; evaluation responses carry epochs just
// like training responses, so pre-test scoring doubles as a drift
// probe. Zero epochs (older daemons) are ignored.
func (l *Leader) signalEpoch(nodeID string, epoch uint64) {
	if epoch == 0 {
		return
	}
	l.reg.SignalNodeEpoch(nodeID, epoch)
}

// SelectionContext builds the Context handed to selectors: the
// leader's RNG plus the warm-up evaluator.
func (l *Leader) SelectionContext() *selection.Context {
	return l.selectionContext(context.Background())
}

// selectionContext binds the selector dependencies to one query's
// context, so pre-test evaluations issued during selection honor the
// query's deadline.
func (l *Leader) selectionContext(ctx context.Context) *selection.Context {
	return &selection.Context{
		RNG: l.src,
		Evaluate: func(nodeID string) (float64, error) {
			return l.evaluateWarmup(ctx, nodeID)
		},
	}
}

// PreTest runs the §II heterogeneity pre-test across all participants.
func (l *Leader) PreTest(ratioThreshold float64) (*selection.PreTestResult, error) {
	return selection.PreTest(l.NodeIDs(), func(nodeID string) (float64, error) {
		return l.evaluateWarmup(context.Background(), nodeID)
	}, ratioThreshold)
}

// Stats accounts for one query execution.
type Stats struct {
	// SelectionTime is the leader-side time to rank and select.
	SelectionTime time.Duration
	// TrainTime is the summed node-reported training time.
	TrainTime time.Duration
	// WallTime is the end-to-end execution time.
	WallTime time.Duration
	// SamplesUsed is the number of samples trained on across the
	// selected participants.
	SamplesUsed int
	// SamplesSelectedNodes is the total data held by the selected
	// participants (the denominator for the Fig. 9 selectivity
	// accounting at node scope).
	SamplesSelectedNodes int
	// SamplesAllNodes is the total data across all participants.
	SamplesAllNodes int
	// BytesUp estimates bytes sent leader->nodes (model params).
	BytesUp int64
	// BytesDown estimates bytes received nodes->leader.
	BytesDown int64
}

// DataFraction returns SamplesUsed / SamplesAllNodes, the Fig. 9
// quantity.
func (s Stats) DataFraction() float64 {
	if s.SamplesAllNodes == 0 {
		return 0
	}
	return float64(s.SamplesUsed) / float64(s.SamplesAllNodes)
}

// Result is the outcome of executing one query.
type Result struct {
	Query query.Query
	// Epoch is the advertisement epoch the query was planned against;
	// caches keyed on it (see ReuseCache) are flushed when the
	// registry refreshes.
	Epoch        uint64
	Selector     string
	Aggregation  Aggregation
	Participants []selection.Participant
	LocalParams  []ml.Params
	Ensemble     *Ensemble
	// Failed lists participants that were selected but whose
	// training round failed (only populated with
	// Config.TolerateFailures; their models are excluded from the
	// ensemble).
	Failed []string
	// NodeRounds records per-participant round timings and outcomes
	// in execution order, including failed rounds with their error
	// strings — the per-query attribution behind the
	// qens_leader_train_round_ms metric family.
	NodeRounds []NodeRound
	// TrainMins/TrainMaxs pack the cluster rectangles the ensemble
	// was actually trained on (every supporting cluster of every
	// participant), rect-major with TrainDims values per rectangle —
	// the same flat layout registry.NodeGeom uses. The model-answer
	// cache scores coverage of future queries against these to bound
	// the expected extrapolation error. Empty for results built
	// before capture existed (wire-decoded, legacy callers).
	TrainMins []float64
	TrainMaxs []float64
	TrainDims int
	// RoundDeltas records, for a FedAvg request (Rounds > 1), the L2
	// distance between consecutive global parameter vectors; a
	// shrinking sequence indicates convergence.
	RoundDeltas []float64
	// GlobalParams is a FedAvg request's final global parameter vector.
	GlobalParams ml.Params
	Stats        Stats
}

// Request is one query for Leader.Execute.
type Request struct {
	Query       query.Query
	Selector    selection.Selector
	Aggregation Aggregation
	// Cache, when non-nil, fronts training with the adaptive reuse
	// pipeline: exact reuse, then (when configured) the approximate
	// model-answer tier with its probe schedule, then training, whose
	// result is stored back.
	Cache *ReuseCache
	// Rounds ≤ 1 is the paper's single round: one local training pass
	// per participant, aggregated by Eq. 6/7. Rounds > 1 runs that many
	// FedAvg rounds, averaging parameters with the same Eq. 6/7 weights
	// (see rounds.go); it cannot be combined with Cache.
	Rounds int
}

// Execute runs the full §IV-B loop for one query: select participants,
// send the initial global model, let each participant train over its
// supporting clusters, and build the aggregated predictor. The kind
// says which path answered; it is ServeFresh unless req.Cache served
// or probed the answer.
//
// Internally this is the two-stage pipeline: planner.Plan (pure CPU,
// lock-free over the registry snapshot) followed by the I/O-bound
// training fan-out and aggregation. Participants train concurrently,
// at most maxInFlightRounds at a time. A failed round cancels its
// siblings and aborts the query, and the error names the failing node;
// with Config.TolerateFailures the survivors form the ensemble and the
// failed nodes are listed in Result.Failed. The context reaches every
// participant client, so an expired query releases the fleet at once;
// a query whose context is already done returns ctx.Err() before
// selection. When a tracer is installed the execution emits one trace
// with selection, per-node train and aggregation spans.
func (l *Leader) Execute(ctx context.Context, req Request) (*Result, ServeKind, error) {
	switch {
	case req.Rounds > 1 && req.Cache != nil:
		return nil, ServeFresh, fmt.Errorf("federation: a %d-round request cannot be served from a reuse cache", req.Rounds)
	case req.Cache != nil:
		return l.serveCached(ctx, req)
	}
	res, err := l.execute(ctx, req)
	return res, ServeFresh, err
}

// execute plans and trains one query, bypassing any cache.
func (l *Leader) execute(ctx context.Context, req Request) (_ *Result, retErr error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	qspan := l.startQuerySpan(req.Query, req.Selector)
	defer func() { qspan.End(retErr) }()

	pl, selectionTime, err := l.planWithSpan(ctx, qspan, req.Query, req.Selector)
	if err != nil {
		return nil, err
	}
	defer pl.Release()

	res, err := l.run(ctx, qspan, pl, req.Aggregation, req.Rounds)
	if err != nil {
		return nil, err
	}
	res.Stats.SelectionTime = selectionTime
	res.Stats.WallTime = time.Since(start)
	l.metrics.query(req.Selector.Name(), selectionTime, len(res.Failed))
	return res, nil
}

// PlanContext runs only the pure-CPU planning stage for a query: the
// registry snapshot is resolved (fetching the fleet at most once), the
// candidate ranking is computed, and the selection policy applied — no
// training RPC is issued. This is what the gateway's EXPLAIN endpoint
// serves. The caller must Release the returned plan.
func (l *Leader) PlanContext(ctx context.Context, q query.Query, sel selection.Selector) (*plan.Plan, error) {
	snap, err := l.reg.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	pl, err := l.planner.PlanOn(snap, q, sel, l.selectionContext(ctx))
	if err != nil {
		return nil, fmt.Errorf("federation: %s selection for %s: %w", sel.Name(), q.ID, err)
	}
	return pl, nil
}

// ExplainContext is PlanContext with the spatial-index fast path
// disabled: every ranking row carries full per-dimension overlap
// detail, which is what the gateway's EXPLAIN endpoint renders. The
// participant set is identical to PlanContext's. The caller must
// Release the returned plan.
func (l *Leader) ExplainContext(ctx context.Context, q query.Query, sel selection.Selector) (*plan.Plan, error) {
	snap, err := l.reg.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	pl, err := l.planner.ExplainOn(snap, q, sel, l.selectionContext(ctx))
	if err != nil {
		return nil, fmt.Errorf("federation: %s selection for %s: %w", sel.Name(), q.ID, err)
	}
	return pl, nil
}

// planWithSpan resolves the snapshot and plans under a selection span,
// preserving the legacy error shapes: summary-fetch failures surface
// unwrapped, selection failures get the "%s selection for %s" wrap.
func (l *Leader) planWithSpan(ctx context.Context, qspan *telemetry.SpanHandle, q query.Query, sel selection.Selector) (*plan.Plan, time.Duration, error) {
	snap, err := l.reg.Snapshot(ctx)
	if err != nil {
		return nil, 0, err
	}
	selStart := time.Now()
	selSpan := startSelectionSpan(qspan)
	pl, err := l.planner.PlanOn(snap, q, sel, l.selectionContext(ctx))
	selSpan.End(err)
	if err != nil {
		return nil, 0, fmt.Errorf("federation: %s selection for %s: %w", sel.Name(), q.ID, err)
	}
	return pl, time.Since(selStart), nil
}

// EvaluateGlobal scores a single global model (e.g. the GlobalParams
// of a FedAvg request) against the federation's own data restricted to
// bounds, without any raw data reaching the leader: every participant
// reports its local (MSE, sample count) and the leader pools them by
// sample weight. ok is false when no participant holds in-bounds data.
func (l *Leader) EvaluateGlobal(params ml.Params, bounds geometry.Rect) (mse float64, samples int, err error) {
	return l.EvaluateGlobalContext(context.Background(), params, bounds)
}

// EvaluateGlobalContext is EvaluateGlobal with deadline/cancellation
// support.
func (l *Leader) EvaluateGlobalContext(ctx context.Context, params ml.Params, bounds geometry.Rect) (mse float64, samples int, err error) {
	totalSq := 0.0
	for _, c := range l.clients {
		resp, err := c.Evaluate(ctx, EvalRequest{Spec: l.cfg.Spec, Params: params, Bounds: &bounds})
		if err != nil {
			return 0, 0, fmt.Errorf("federation: evaluate on %s: %w", c.ID(), err)
		}
		l.signalEpoch(c.ID(), resp.SummaryEpoch)
		totalSq += resp.MSE * float64(resp.Samples)
		samples += resp.Samples
	}
	if samples == 0 {
		return 0, 0, nil
	}
	return totalSq / float64(samples), samples, nil
}

// EvaluateResult scores a result's ensemble against test data
// restricted to the query's subspace, returning the MSE and the number
// of test samples that fell inside the query. When no test samples
// fall inside the query rectangle, ok is false.
func EvaluateResult(res *Result, test *dataset.Dataset) (mse float64, samples int, ok bool) {
	sub := test.FilterInRect(res.Query.Bounds)
	if sub.Len() == 0 {
		return 0, 0, false
	}
	x, y := sub.XY()
	return ml.MSE(y, res.Ensemble.PredictBatch(x)), sub.Len(), true
}
