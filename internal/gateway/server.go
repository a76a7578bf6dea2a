package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/federation"
	"qens/internal/fleet"
	"qens/internal/geometry"
	"qens/internal/plan"
	"qens/internal/query"
	"qens/internal/region"
	"qens/internal/registry"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// ServerConfig parameterizes the HTTP serving layer.
type ServerConfig struct {
	// Leader executes queries against a single-leader fleet. Exactly
	// one of Leader and Router must be set.
	Leader *federation.Leader
	// Router executes queries against a spatially sharded multi-leader
	// topology (see internal/region): every endpoint — submit, plan,
	// stats, fleet — routes through the root coordinator instead of a
	// single leader. Exactly one of Leader and Router must be set.
	Router *region.Router
	// Cache, when non-nil, fronts the leader with result reuse. Only
	// valid with Leader: the router carries its own epoch-fenced reuse
	// cache (region.Config.ReuseIoU).
	Cache *federation.ReuseCache

	// Workers, QueueDepth, DefaultTimeout and CoalesceIoU configure
	// the scheduler (see Config). CoalesceIoU defaults to 0.95 here —
	// the serving layer wants near-identical concurrent queries to
	// share one training run; pass a negative value to disable
	// coalescing entirely.
	Workers        int
	QueueDepth     int
	DefaultTimeout time.Duration
	CoalesceIoU    float64
	// MaxTimeout caps client-supplied per-query budgets (default 5m).
	MaxTimeout time.Duration

	// DefaultEpsilon and DefaultTopL parameterize the query-driven
	// selector when the request omits them (defaults 0.6 and 3, the
	// paper's operating point).
	DefaultEpsilon float64
	DefaultTopL    int

	// Bandit, when non-nil, serves selector "auto": each auto query
	// plays one (ℓ, ψ, selector) arm, and the realized reward —
	// success fraction and data coverage discounted by the slowest
	// node round — is folded back into that arm once the query
	// finishes fresh (reused and coalesced outcomes trained nothing,
	// so they teach the bandit nothing). EXPLAIN uses the side-effect
	// free greedy arm.
	Bandit *selection.ConfigBandit

	// RecordCapacity bounds the finished-query store backing
	// GET /v1/query/{id} (default 256; oldest evicted).
	RecordCapacity int

	// Registry receives gateway metrics (default telemetry.Default()).
	Registry *telemetry.Registry

	// TransportStats, when non-nil, is invoked per GET /v1/stats and
	// its result embedded under "transport" — the gateway layer stays
	// agnostic of the fleet wiring (in-process vs TCP) while remote
	// deployments surface per-node wire-protocol state (negotiated
	// version, in-flight RPCs, byte counters).
	TransportStats func() any

	// Tracer backs GET /v1/trace/{id} and /v1/traces; when nil the
	// process-default tracer (telemetry.DefaultTracer) serves them. The
	// endpoints 404 when neither is installed. NewServer pins a non-nil
	// Tracer to the leader, so query spans land in the same store the
	// endpoints serve.
	Tracer *telemetry.Tracer
	// WireStatus, when non-nil, supplies typed per-node transport state
	// merged into GET /v1/fleet for remote fleets.
	WireStatus func() []fleet.WireStatus
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.CoalesceIoU == 0 {
		c.CoalesceIoU = 0.95
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DefaultEpsilon == 0 {
		c.DefaultEpsilon = 0.6
	}
	if c.DefaultTopL == 0 {
		c.DefaultTopL = 3
	}
	if c.RecordCapacity == 0 {
		c.RecordCapacity = 256
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	return c
}

// Server is the gateway's HTTP serving layer: request parsing,
// admission, response shaping, and the stats/metrics surface.
type Server struct {
	cfg     ServerConfig
	sched   *Scheduler
	records *recordStore
	start   time.Time
	nextID  atomic.Int64
	handler http.Handler

	// statefulSels holds one persistent instance per stateful selector
	// configuration — fairness rotation cursors and contribution
	// histories must survive across requests, and the selectors guard
	// their own state, so concurrent queries share them safely.
	selMu        sync.Mutex
	statefulSels map[string]selection.Selector
}

// NewServer builds a gateway server (and its scheduler) over a leader
// or a region router.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if (cfg.Leader == nil) == (cfg.Router == nil) {
		return nil, errors.New("gateway: server needs exactly one of Leader and Router")
	}
	if cfg.Router != nil && cfg.Cache != nil {
		return nil, errors.New("gateway: Cache is a single-leader option; the router has its own reuse cache")
	}
	coalesce := cfg.CoalesceIoU
	if coalesce < 0 {
		coalesce = 0 // explicit opt-out
	}
	var exec Executor = cfg.Router
	if cfg.Leader != nil {
		exec = LeaderExecutor{Leader: cfg.Leader, Cache: cfg.Cache}
	}
	sched, err := NewScheduler(Config{
		Workers:        cfg.Workers,
		QueueDepth:     cfg.QueueDepth,
		DefaultTimeout: cfg.DefaultTimeout,
		CoalesceIoU:    coalesce,
		Executor:       exec,
		Registry:       cfg.Registry,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Tracer != nil {
		if cfg.Leader != nil {
			cfg.Leader.SetTracer(cfg.Tracer)
		} else {
			cfg.Router.SetTracer(cfg.Tracer)
		}
	}
	s := &Server{
		cfg:          cfg,
		sched:        sched,
		records:      newRecordStore(cfg.RecordCapacity),
		start:        time.Now(),
		statefulSels: make(map[string]selection.Selector),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleSubmit)
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/query/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	obs := telemetry.NewHTTPHandler(cfg.Registry, s.health, s.start)
	mux.Handle("/metrics", obs)
	mux.Handle("/healthz", obs)
	mux.Handle("/debug/pprof/", obs)
	s.handler = mux
	return s, nil
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Scheduler exposes the underlying scheduler (stats, tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Drain stops admission and waits for in-flight queries (bounded by
// ctx). Call before shutting the HTTP listener down so waiting
// handlers can still deliver their responses. Summary push delivery is
// gated off first, so late frames from the fleet cannot mutate the
// registry mid-teardown.
func (s *Server) Drain(ctx context.Context) error {
	if s.cfg.Leader != nil {
		s.cfg.Leader.StopPush()
	}
	return s.sched.Drain(ctx)
}

// Close force-drains the scheduler.
func (s *Server) Close() {
	if s.cfg.Leader != nil {
		s.cfg.Leader.StopPush()
	}
	s.sched.Close()
}

// health feeds the /healthz document.
func (s *Server) health() map[string]any {
	st := s.sched.SchedStats()
	doc := map[string]any{
		"draining":    st.Draining,
		"queue_depth": st.QueueDepth,
		"inflight":    st.InFlight,
	}
	if s.cfg.Leader != nil {
		doc["nodes"] = len(s.cfg.Leader.NodeIDs())
		// Summary freshness mode: how many participants push their
		// advertisements (vs being pulled on the TTL), with the
		// registry's applied/dropped push accounting alongside.
		subscribed := s.cfg.Leader.PushSubscribed()
		doc["push_subscribed"] = subscribed
		if subscribed > 0 {
			doc["summary_mode"] = "push"
		} else {
			doc["summary_mode"] = "pull"
		}
		if reg := s.cfg.Leader.Registry(); reg != nil {
			st := reg.Stats()
			doc["push_applied"] = st.PushApplied
			doc["push_dropped_stale"] = st.PushDroppedStale
		}
	} else {
		nodes, _ := s.cfg.Router.NodeIDs(context.Background())
		doc["nodes"] = len(nodes)
		doc["regions"] = len(s.cfg.Router.Regions())
	}
	return doc
}

// nodeIDs resolves the global roster from whichever topology backs the
// gateway.
func (s *Server) nodeIDs(ctx context.Context) []string {
	if s.cfg.Leader != nil {
		return s.cfg.Leader.NodeIDs()
	}
	ids, err := s.cfg.Router.NodeIDs(ctx)
	if err != nil {
		return nil
	}
	return ids
}

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// ID names the query (generated when empty; must be unique among
	// retained records).
	ID string `json:"id"`
	// Bounds is the query hyper-rectangle.
	Bounds geometry.Rect `json:"bounds"`
	// Selector picks the mechanism: "query-driven" (default),
	// "random", "all-nodes" or "game-theory".
	Selector string `json:"selector"`
	// Epsilon, TopL, Psi parameterize query-driven selection; L
	// parameterizes random / game-theory.
	Epsilon float64 `json:"epsilon"`
	TopL    int     `json:"top_l"`
	Psi     float64 `json:"psi"`
	L       int     `json:"l"`
	// Aggregation is "weighted" (default) or "averaging".
	Aggregation string `json:"aggregation"`
	// TimeoutMS bounds execution; Deadline (RFC3339) is the absolute
	// alternative. When both are set the earlier wins.
	TimeoutMS int64  `json:"timeout_ms"`
	Deadline  string `json:"deadline"`
	// Async returns 202 immediately; poll GET /v1/query/{id}.
	Async bool `json:"async"`
	// IncludeParams embeds the local model parameter vectors in the
	// response (large; off by default).
	IncludeParams bool `json:"include_params"`
}

// participantJSON is one selected node in a response.
type participantJSON struct {
	NodeID   string  `json:"node_id"`
	Rank     float64 `json:"rank"`
	Clusters []int   `json:"clusters,omitempty"`
}

// queryResponse is the POST /v1/query (and record) result body.
type queryResponse struct {
	ID           string            `json:"id"`
	Selector     string            `json:"selector"`
	Aggregation  string            `json:"aggregation"`
	Participants []participantJSON `json:"participants"`
	Failed       []string          `json:"failed,omitempty"`
	Reused       bool              `json:"reused"`
	// Approx reports the answer came from the model cache under the
	// predicted-error bound rather than an exact-IoU match: the
	// ensemble was trained on a nearby subspace, not this query's.
	Approx      bool          `json:"approx,omitempty"`
	Coalesced   bool          `json:"coalesced"`
	QueueWaitMS float64       `json:"queue_wait_ms"`
	ElapsedMS   float64       `json:"elapsed_ms"`
	Stats       execStatsJSON `json:"stats"`
	LocalParams [][]float64   `json:"local_params,omitempty"`
}

// execStatsJSON mirrors federation.Stats for the wire.
type execStatsJSON struct {
	SelectionMS   float64 `json:"selection_ms"`
	TrainMS       float64 `json:"train_ms"`
	WallMS        float64 `json:"wall_ms"`
	SamplesUsed   int     `json:"samples_used"`
	SamplesAll    int     `json:"samples_all_nodes"`
	DataFraction  float64 `json:"data_fraction"`
	BytesUp       int64   `json:"bytes_up"`
	BytesDown     int64   `json:"bytes_down"`
	EnsembleSize  int     `json:"ensemble_size"`
	FailedRounds  int     `json:"failed_rounds"`
	Participating int     `json:"participating"`
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// buildSelector maps the request's selector spec to a
// selection.Selector. Stateful mechanisms (fairness, contribution)
// resolve to one persistent, internally locked instance per
// (mechanism, L) so their cursors/histories carry across requests —
// concurrent queries advance them under the selector's own mutex.
func (s *Server) buildSelector(req queryRequest) (selection.Selector, error) {
	eps := req.Epsilon
	if eps == 0 {
		eps = s.cfg.DefaultEpsilon
	}
	l := req.L
	if l == 0 {
		l = s.cfg.DefaultTopL
	}
	switch strings.ToLower(req.Selector) {
	case "auto", "bandit":
		return nil, fmt.Errorf("selector %q needs the gateway bandit enabled", req.Selector)
	case "", "query-driven":
		if req.Psi > 0 {
			return selection.QueryDriven{Epsilon: eps, Psi: req.Psi}, nil
		}
		topL := req.TopL
		if topL == 0 {
			topL = s.cfg.DefaultTopL
		}
		return selection.QueryDriven{Epsilon: eps, TopL: topL}, nil
	case "random":
		return selection.Random{L: l}, nil
	case "all-nodes":
		return selection.AllNodes{}, nil
	case "game-theory":
		return selection.GameTheory{L: l}, nil
	case "fairness":
		return s.statefulSelector(fmt.Sprintf("fairness/%d", l), func() selection.Selector {
			return &selection.Fairness{L: l}
		}), nil
	case "contribution":
		return s.statefulSelector(fmt.Sprintf("contribution/%d", l), func() selection.Selector {
			return &selection.Contribution{L: l}
		}), nil
	default:
		return nil, fmt.Errorf("unknown selector %q", req.Selector)
	}
}

// resolveSelector maps the request to a selector, routing "auto" /
// "bandit" through the config bandit. It returns the bandit arm index
// played (-1 when the bandit was not involved) so the submit path can
// credit the arm with the realized reward. EXPLAIN passes explain=true
// to use the side-effect-free greedy arm — planning must not advance
// the bandit's RNG or play counts.
func (s *Server) resolveSelector(req queryRequest, explain bool) (selection.Selector, int, error) {
	switch strings.ToLower(req.Selector) {
	case "auto", "bandit":
		if s.cfg.Bandit == nil {
			return nil, -1, fmt.Errorf("selector %q needs the gateway bandit enabled", req.Selector)
		}
		if explain {
			arm, sel := s.cfg.Bandit.Best()
			return sel, arm, nil
		}
		arm, sel := s.cfg.Bandit.Pick()
		return sel, arm, nil
	}
	sel, err := s.buildSelector(req)
	return sel, -1, err
}

// statefulSelector returns the server's persistent selector instance
// under key, creating it on first use.
func (s *Server) statefulSelector(key string, mk func() selection.Selector) selection.Selector {
	s.selMu.Lock()
	defer s.selMu.Unlock()
	if sel, ok := s.statefulSels[key]; ok {
		return sel
	}
	sel := mk()
	s.statefulSels[key] = sel
	return sel
}

// planAheadKey runs the pure-CPU planning stage at admission time for
// deterministic mechanisms and returns the plan's identity fingerprint
// — the scheduler coalesces exact-key matches without an IoU
// approximation. Nondeterministic (random draws) and stateful
// (rotation, history) selectors return "" so admission does not
// consume their state; they fall back to IoU coalescing. A query no
// advertised cluster supports fails here with
// selection.ErrNoCandidates before it can occupy a queue slot; any
// other planning error is advisory (execution replans and surfaces
// it).
func (s *Server) planAheadKey(ctx context.Context, q query.Query, sel selection.Selector) (string, error) {
	switch sel.(type) {
	case selection.QueryDriven, selection.AllNodes:
	default:
		return "", nil
	}
	if s.cfg.Router != nil {
		key, err := s.cfg.Router.PlanKey(ctx, q, sel)
		if err != nil {
			if errors.Is(err, selection.ErrNoCandidates) {
				return "", err
			}
			return "", nil
		}
		return key, nil
	}
	pl, err := s.cfg.Leader.PlanContext(ctx, q, sel)
	if err != nil {
		if errors.Is(err, selection.ErrNoCandidates) {
			return "", err
		}
		return "", nil
	}
	key := pl.Key()
	pl.Release()
	return key, nil
}

func buildAggregation(name string) (federation.Aggregation, error) {
	switch strings.ToLower(name) {
	case "", "weighted":
		return federation.WeightedAveraging, nil
	case "averaging", "model":
		return federation.ModelAveraging, nil
	default:
		return 0, fmt.Errorf("unknown aggregation %q", name)
	}
}

// timeoutFor resolves the request's execution budget: timeout_ms
// and/or an absolute RFC3339 deadline, capped at MaxTimeout. ok=false
// with a zero duration means the deadline already passed.
func (s *Server) timeoutFor(req queryRequest, now time.Time) (time.Duration, bool, error) {
	timeout := s.cfg.DefaultTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	if req.TimeoutMS != 0 {
		if req.TimeoutMS < 0 {
			return 0, false, fmt.Errorf("timeout_ms %d is negative", req.TimeoutMS)
		}
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if req.Deadline != "" {
		abs, err := time.Parse(time.RFC3339, req.Deadline)
		if err != nil {
			return 0, false, fmt.Errorf("bad deadline %q: %v", req.Deadline, err)
		}
		if until := abs.Sub(now); until < timeout {
			timeout = until
		}
	}
	if timeout <= 0 {
		return 0, false, nil
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout, true, nil
}

// handleSubmit serves POST /v1/query.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	id := req.ID
	if id == "" {
		id = fmt.Sprintf("gw-%d", s.nextID.Add(1))
	}
	q, err := query.New(id, req.Bounds)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sel, banditArm, err := s.resolveSelector(req, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	agg, err := buildAggregation(req.Aggregation)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout, alive, err := s.timeoutFor(req, time.Now())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !alive {
		// The deadline expired before admission: fail promptly with
		// the context error, exactly as a late cancellation would.
		writeError(w, http.StatusGatewayTimeout, "query %s: %v", id, context.DeadlineExceeded)
		return
	}

	planKey, err := s.planAheadKey(r.Context(), q, sel)
	if err != nil {
		// No edge node's cluster space supports the requested bounds.
		// Before rejecting, ask the model cache: an ensemble trained on
		// a nearby subspace can still answer within the predicted-error
		// bound even when nobody can train this exact rectangle.
		if resp, ok := s.answerFromCache(id, q); ok {
			now := time.Now()
			s.records.put(id, &record{ID: id, Status: recordDone, Submitted: now, Finished: &now, Result: resp})
			if req.Async {
				writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": string(recordDone)})
				return
			}
			writeJSON(w, http.StatusOK, *resp)
			return
		}
		// A property of the query, not a server fault — rejected before
		// it can occupy a queue slot.
		writeError(w, http.StatusUnprocessableEntity, "query %s: %v", id, err)
		return
	}
	if s.cfg.CoalesceIoU < 0 {
		planKey = "" // coalescing explicitly disabled
	}

	// The submitter's context carries the query deadline so an
	// already-expired budget is rejected inside Submit too.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	tk, err := s.sched.Submit(ctx, Request{Query: q, Selector: sel, Aggregation: agg, Timeout: timeout, PlanKey: planKey})
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			writeError(w, http.StatusGatewayTimeout, "query %s: %v", id, err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}

	s.records.put(id, &record{ID: id, Status: recordPending, Submitted: time.Now()})
	// The record tracker outlives the HTTP request: async clients and
	// sync clients whose connection died both find the outcome under
	// GET /v1/query/{id}.
	go s.trackRecord(id, req.IncludeParams, banditArm, tk)

	if req.Async {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": string(recordPending)})
		return
	}

	out, err := tk.Wait(ctx)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			writeError(w, http.StatusGatewayTimeout, "query %s: %v", id, err)
		case errors.Is(err, selection.ErrNoCandidates):
			// A property of the query, not a server fault: no edge
			// node's cluster space supports the requested bounds.
			writeError(w, http.StatusUnprocessableEntity, "query %s: %v", id, err)
		default:
			writeError(w, http.StatusBadGateway, "query %s: %v", id, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, buildResponse(id, out, req.IncludeParams))
}

// trackRecord waits for the task (detached from any HTTP context) and
// finalizes the stored record. It is also where a bandit-played arm is
// credited: the tracker runs exactly once per admitted query, whether
// or not the submitting client stayed connected.
func (s *Server) trackRecord(id string, includeParams bool, banditArm int, tk *Ticket) {
	out, err := tk.Wait(context.Background())
	now := time.Now()
	if err != nil {
		s.records.update(id, func(rec *record) {
			rec.Status = recordError
			rec.Error = err.Error()
			rec.Finished = &now
		})
		return
	}
	if banditArm >= 0 && s.cfg.Bandit != nil && !out.Kind.Reused() && !out.Coalesced {
		// Only fresh executions carry a signal about the arm's config —
		// cache hits and coalesced waits trained nothing.
		s.cfg.Bandit.Observe(banditArm, banditReward(out))
	}
	resp := buildResponse(id, out, includeParams)
	s.records.update(id, func(rec *record) {
		rec.Status = recordDone
		rec.Result = &resp
		rec.Finished = &now
	})
}

// answerFromCache tries to serve a query that cannot be planned (no
// supporting candidates) straight from the model cache: exact-IoU
// match first, then the approximate tier under its predicted-error
// bound. Single-leader gateways with a cache only.
func (s *Server) answerFromCache(id string, q query.Query) (*queryResponse, bool) {
	if s.cfg.Cache == nil || s.cfg.Leader == nil {
		return nil, false
	}
	var epoch uint64
	if reg := s.cfg.Leader.Registry(); reg != nil {
		epoch = reg.ReuseEpoch()
	}
	res, kind, ok := s.cfg.Cache.Answer(q, epoch)
	if !ok {
		return nil, false
	}
	resp := buildResponse(id, &Outcome{Result: res, Kind: kind}, false)
	return &resp, true
}

// banditReward scores one fresh execution for the config bandit:
// round success fraction times a data-coverage quality proxy (the
// Fig. 9 selectivity — how much of the fleet's relevant data the arm's
// config actually trained on), discounted by the slowest node round's
// wall time so expensive configs must earn their latency.
func banditReward(out *Outcome) float64 {
	res := out.Result
	var worst time.Duration
	failed := 0
	for _, nr := range res.NodeRounds {
		if nr.Failed() {
			failed++
		}
		if nr.Elapsed > worst {
			worst = nr.Elapsed
		}
	}
	success := 1.0
	if n := len(res.NodeRounds); n > 0 {
		success = 1 - float64(failed)/float64(n)
	}
	quality := 0.3 + 0.7*res.Stats.DataFraction()
	return success * quality / (1 + worst.Seconds())
}

// buildResponse shapes one outcome for the wire.
func buildResponse(id string, out *Outcome, includeParams bool) queryResponse {
	res := out.Result
	resp := queryResponse{
		ID:          id,
		Selector:    res.Selector,
		Aggregation: res.Aggregation.String(),
		Reused:      out.Kind.Reused(),
		Approx:      out.Kind == federation.ServeApprox,
		Coalesced:   out.Coalesced,
		QueueWaitMS: float64(out.QueueWait) / float64(time.Millisecond),
		ElapsedMS:   float64(out.Elapsed) / float64(time.Millisecond),
		Failed:      res.Failed,
		Stats: execStatsJSON{
			SelectionMS:   float64(res.Stats.SelectionTime) / float64(time.Millisecond),
			TrainMS:       float64(res.Stats.TrainTime) / float64(time.Millisecond),
			WallMS:        float64(res.Stats.WallTime) / float64(time.Millisecond),
			SamplesUsed:   res.Stats.SamplesUsed,
			SamplesAll:    res.Stats.SamplesAllNodes,
			DataFraction:  res.Stats.DataFraction(),
			BytesUp:       res.Stats.BytesUp,
			BytesDown:     res.Stats.BytesDown,
			EnsembleSize:  res.Ensemble.Size(),
			FailedRounds:  len(res.Failed),
			Participating: len(res.Participants),
		},
	}
	for _, p := range res.Participants {
		resp.Participants = append(resp.Participants, participantJSON{
			NodeID: p.NodeID, Rank: p.Rank, Clusters: p.Clusters,
		})
	}
	if includeParams {
		for _, p := range res.LocalParams {
			resp.LocalParams = append(resp.LocalParams, p.Values)
		}
	}
	return resp
}

// planResponse is the POST /v1/plan (EXPLAIN) body: the selection the
// leader would execute for the query, plus the full per-node ranking
// behind it, produced without a single training RPC.
type planResponse struct {
	ID         string  `json:"id"`
	Epoch      uint64  `json:"epoch"`
	Selector   string  `json:"selector"`
	Epsilon    float64 `json:"epsilon"`
	Key        string  `json:"key,omitempty"`
	Candidates int     `json:"candidates"`
	// Regions lists the sharded topology's regions (router mode only);
	// Epoch is then the routing-topology generation, not a registry
	// epoch.
	Regions      []string          `json:"regions,omitempty"`
	Participants []participantJSON `json:"participants"`
	Rankings     []rankJSON        `json:"rankings,omitempty"`
}

// rankJSON is one node's EXPLAIN row (Eqs. 2–4 of the paper).
type rankJSON struct {
	NodeID            string  `json:"node_id"`
	Rank              float64 `json:"rank"`
	Potential         float64 `json:"potential"`
	Supporting        []int   `json:"supporting,omitempty"`
	SupportingSamples int     `json:"supporting_samples"`
	TotalSamples      int     `json:"total_samples"`
}

// handlePlan serves POST /v1/plan — EXPLAIN for a query: it runs only
// the pure-CPU planning stage (registry snapshot, candidate ranking,
// selection) and reports what the leader would train, without touching
// a node. Stateful selectors are rejected: explaining a fairness or
// contribution query would advance its cursor/history.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("plan-%d", s.nextID.Add(1))
	}
	q, err := query.New(id, req.Bounds)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sel, _, err := s.resolveSelector(req, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, stateful := sel.(selection.Stateful); stateful {
		writeError(w, http.StatusBadRequest, "selector %q is stateful; planning it would advance its state", sel.Name())
		return
	}
	if s.cfg.Router != nil {
		ex, err := s.cfg.Router.ExplainQuery(r.Context(), q, sel)
		if err != nil {
			writePlanError(w, id, err)
			return
		}
		writeJSON(w, http.StatusOK, buildExplainResponse(id, sel.Name(), ex))
		return
	}
	pl, err := s.cfg.Leader.ExplainContext(r.Context(), q, sel)
	if err != nil {
		writePlanError(w, id, err)
		return
	}
	resp := buildPlanResponse(id, pl)
	pl.Release()
	writeJSON(w, http.StatusOK, resp)
}

func writePlanError(w http.ResponseWriter, id string, err error) {
	switch {
	case errors.Is(err, selection.ErrNoCandidates):
		writeError(w, http.StatusUnprocessableEntity, "query %s: %v", id, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, "query %s: %v", id, err)
	default:
		writeError(w, http.StatusBadGateway, "query %s: %v", id, err)
	}
}

// buildExplainResponse shapes a router-mode EXPLAIN: the cross-region
// merged ranking over the whole fleet (routing pruning does not apply
// to EXPLAIN) and the participants the policy would select.
func buildExplainResponse(id, selector string, ex *region.Explain) planResponse {
	resp := planResponse{
		ID:         id,
		Epoch:      ex.Generation,
		Selector:   selector,
		Epsilon:    ex.Epsilon,
		Candidates: len(ex.Rankings),
		Regions:    ex.Regions,
	}
	for _, p := range ex.Participants {
		resp.Participants = append(resp.Participants, participantJSON{
			NodeID: p.NodeID, Rank: p.Rank, Clusters: append([]int(nil), p.Clusters...),
		})
	}
	for _, nr := range ex.Rankings {
		resp.Rankings = append(resp.Rankings, rankJSON{
			NodeID:            nr.NodeID,
			Rank:              nr.Rank,
			Potential:         nr.Potential,
			Supporting:        append([]int(nil), nr.Supporting...),
			SupportingSamples: nr.SupportingSamples,
			TotalSamples:      nr.TotalSamples,
		})
	}
	return resp
}

// buildPlanResponse shapes a plan for the wire. Every slice is deep-
// copied: the plan's slices are arena-backed and die at Release.
func buildPlanResponse(id string, pl *plan.Plan) planResponse {
	resp := planResponse{
		ID:         id,
		Epoch:      pl.Epoch,
		Selector:   pl.Selector,
		Epsilon:    pl.Epsilon,
		Key:        pl.Key(),
		Candidates: pl.NumCandidates(),
	}
	for _, p := range pl.Participants {
		resp.Participants = append(resp.Participants, participantJSON{
			NodeID: p.NodeID, Rank: p.Rank, Clusters: append([]int(nil), p.Clusters...),
		})
	}
	for _, nr := range pl.Rankings {
		resp.Rankings = append(resp.Rankings, rankJSON{
			NodeID:            nr.NodeID,
			Rank:              nr.Rank,
			Potential:         nr.Potential,
			Supporting:        append([]int(nil), nr.Supporting...),
			SupportingSamples: nr.SupportingSamples,
			TotalSamples:      nr.TotalSamples,
		})
	}
	return resp
}

// handleGet serves GET /v1/query/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.records.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no record of query %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// windowJSON is a rolling-window latency summary on the wire.
type windowJSON struct {
	WindowS float64 `json:"window_s"`
	Count   int64   `json:"count"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// statsResponse is the GET /v1/stats document.
type statsResponse struct {
	UptimeS   float64 `json:"uptime_s"`
	Scheduler Stats   `json:"scheduler"`
	// Reuse is the single-leader cache's full scoreboard: exact-tier
	// hit/miss/eviction counts plus the approximate tier's hits,
	// ground-truth probes and fallbacks when it is enabled.
	Reuse *federation.ReuseCacheStats `json:"reuse_cache,omitempty"`
	// Bandit is the config bandit's per-arm scoreboard (selector
	// "auto" enabled only).
	Bandit  []selection.ArmStats `json:"bandit,omitempty"`
	Latency struct {
		Count  int64   `json:"count"`
		MeanMS float64 `json:"mean_ms"`
		P50MS  float64 `json:"p50_ms"`
		P95MS  float64 `json:"p95_ms"`
		P99MS  float64 `json:"p99_ms"`
		MaxMS  float64 `json:"max_ms"`
		// Window summarizes only the last rolling window (see
		// Scheduler.LatencyWindow) next to the cumulative numbers.
		Window windowJSON `json:"window"`
	} `json:"latency"`
	Nodes    []string        `json:"nodes"`
	Space    *geometry.Rect  `json:"space,omitempty"`
	Registry *registry.Stats `json:"registry,omitempty"`
	// Router carries the sharded topology's routing view — per-region
	// shard membership, routed-query counts and epochs (router mode
	// only).
	Router    *region.RouterStats `json:"router,omitempty"`
	Transport any                 `json:"transport,omitempty"`
}

// handleStats serves GET /v1/stats: scheduler counters, reuse-cache
// effectiveness, latency percentiles, the node roster and the global
// data space (load generators draw workloads from it).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.UptimeS = time.Since(s.start).Seconds()
	resp.Scheduler = s.sched.SchedStats()
	resp.Nodes = s.nodeIDs(r.Context())
	if s.cfg.Cache != nil {
		st := s.cfg.Cache.CacheStats()
		resp.Reuse = &st
	}
	if s.cfg.Bandit != nil {
		resp.Bandit = s.cfg.Bandit.Stats()
	}
	snap := s.sched.LatencySnapshot()
	resp.Latency.Count = snap.Count
	if snap.Count > 0 {
		resp.Latency.MeanMS = snap.Sum / float64(snap.Count)
	}
	resp.Latency.P50MS = snap.P50
	resp.Latency.P95MS = snap.P95
	resp.Latency.P99MS = snap.P99
	resp.Latency.MaxMS = snap.Max
	win := s.sched.LatencyWindow()
	resp.Latency.Window = windowJSON{
		WindowS: win.Window.Seconds(),
		Count:   win.Count,
		MeanMS:  win.Mean(),
		P50MS:   win.P50,
		P95MS:   win.P95,
		P99MS:   win.P99,
		MaxMS:   win.Max,
	}
	if space, err := s.space(r.Context()); err == nil {
		resp.Space = &space
	}
	if s.cfg.Leader != nil {
		if reg := s.cfg.Leader.Registry(); reg != nil {
			st := reg.Stats()
			resp.Registry = &st
		}
	} else if rs, err := s.cfg.Router.Stats(r.Context()); err == nil {
		resp.Router = &rs
	}
	if s.cfg.TransportStats != nil {
		resp.Transport = s.cfg.TransportStats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// space computes the union of every advertised cluster rectangle — the
// global data space queries are drawn over.
func (s *Server) space(ctx context.Context) (geometry.Rect, error) {
	if s.cfg.Router != nil {
		return s.cfg.Router.Space(ctx)
	}
	summaries, err := s.cfg.Leader.SummariesContext(ctx)
	if err != nil {
		return geometry.Rect{}, err
	}
	bounds := make([]geometry.Rect, 0, len(summaries))
	for _, sum := range summaries {
		if len(sum.Clusters) == 0 {
			continue
		}
		node := sum.Clusters[0].Bounds.Clone()
		for _, c := range sum.Clusters[1:] {
			node = node.Union(c.Bounds)
		}
		bounds = append(bounds, node)
	}
	return query.GlobalSpace(bounds)
}

// tracer resolves the tracer backing the trace endpoints: the
// configured one, else the process default (possibly nil).
func (s *Server) tracer() *telemetry.Tracer {
	if s.cfg.Tracer != nil {
		return s.cfg.Tracer
	}
	return telemetry.DefaultTracer()
}

// traceResponse is the GET /v1/trace/{id} document: the assembled
// cross-process span tree plus its critical-path decomposition.
type traceResponse struct {
	*telemetry.TraceTree
	CriticalPath telemetry.CriticalPathReport `json:"critical_path"`
}

// handleTrace serves GET /v1/trace/{id}: the assembled tree for one
// query's trace — leader spans plus the node-side spans piggybacked on
// RPC responses — with wall time attributed per phase category.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing is not enabled on this gateway")
		return
	}
	id := r.PathValue("id")
	spans := tr.TraceSpans(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "no retained spans for trace %q", id)
		return
	}
	tree, err := telemetry.AssembleTrace(spans, id)
	if err != nil {
		writeError(w, http.StatusNotFound, "trace %q: %v", id, err)
		return
	}
	writeJSON(w, http.StatusOK, traceResponse{TraceTree: tree, CriticalPath: tree.CriticalPath()})
}

// traceListEntry is one retained trace root in GET /v1/traces.
type traceListEntry struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Query      string    `json:"query,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// handleTraces serves GET /v1/traces: the most recent retained trace
// roots, newest first — the index for /v1/trace/{id}.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := s.tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing is not enabled on this gateway")
		return
	}
	const maxList = 64
	spans := tr.Spans()
	out := make([]traceListEntry, 0, maxList)
	for i := len(spans) - 1; i >= 0 && len(out) < maxList; i-- {
		sp := spans[i]
		if sp.ParentID != "" {
			continue
		}
		out = append(out, traceListEntry{
			TraceID:    sp.TraceID,
			Name:       sp.Name,
			Start:      sp.Start,
			DurationMS: sp.DurationMS,
			Query:      sp.Attrs["query"],
			Error:      sp.Error,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// fleetResponse is the GET /v1/fleet document.
type fleetResponse struct {
	Nodes []fleet.NodeHealth `json:"nodes"`
	// RegistryEpoch/RegistryStale mirror the summary registry's state
	// at report time (single-leader mode).
	RegistryEpoch uint64 `json:"registry_epoch"`
	RegistryStale bool   `json:"registry_stale"`
	// Regions carries per-region shard membership and health in router
	// mode; Nodes is then the concatenation across regions.
	Regions []regionFleetJSON `json:"regions,omitempty"`
}

// regionFleetJSON is one region's block in a router-mode /v1/fleet.
type regionFleetJSON struct {
	RegionID      string             `json:"region_id"`
	Nodes         []fleet.NodeHealth `json:"nodes"`
	NodeIDs       []string           `json:"node_ids"`
	RegistryEpoch uint64             `json:"registry_epoch"`
	RegistryStale bool               `json:"registry_stale"`
	TotalSamples  int                `json:"total_samples"`
}

// handleFleet serves GET /v1/fleet: per-node health scores from the
// leader's round observations, merged with summary-epoch staleness
// from the registry and (for remote fleets) wire-level transport
// state. In router mode the report is assembled per region from each
// regional leader's own registry and health tracker.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Router != nil {
		s.handleRegionFleet(w, r)
		return
	}
	var resp fleetResponse
	meta := map[string]fleet.Meta{}
	// Seed the roster so nodes that never answered a round still
	// appear.
	for _, id := range s.cfg.Leader.NodeIDs() {
		meta[id] = fleet.Meta{}
	}
	if reg := s.cfg.Leader.Registry(); reg != nil {
		st := reg.Stats()
		resp.RegistryEpoch = st.Epoch
		resp.RegistryStale = st.Stale
		if snap, ok := reg.Current(); ok {
			for _, n := range snap.Nodes {
				m := meta[n.NodeID]
				m.SummaryEpoch = snap.NodeSummaryEpoch(n.NodeID)
				// The registry invalidates as a whole when any node
				// signals drift; until the refresh lands every node is
				// planned against potentially stale geometry.
				m.Stale = st.Stale
				meta[n.NodeID] = m
			}
		}
	}
	if s.cfg.WireStatus != nil {
		for _, ws := range s.cfg.WireStatus() {
			ws := ws
			m := meta[ws.NodeID]
			m.Wire = &ws
			meta[ws.NodeID] = m
		}
	}
	resp.Nodes = s.cfg.Leader.Health().Report(meta)
	writeJSON(w, http.StatusOK, resp)
}

// handleRegionFleet assembles the router-mode /v1/fleet document from
// every region's Stats report.
func (s *Server) handleRegionFleet(w http.ResponseWriter, r *http.Request) {
	reports, err := s.cfg.Router.FleetReport(r.Context())
	if err != nil {
		writeError(w, http.StatusBadGateway, "fleet report: %v", err)
		return
	}
	var resp fleetResponse
	for _, rep := range reports {
		ids := make([]string, 0, len(rep.Info.Nodes))
		for _, n := range rep.Info.Nodes {
			ids = append(ids, n.NodeID)
		}
		resp.Regions = append(resp.Regions, regionFleetJSON{
			RegionID:      rep.Info.RegionID,
			Nodes:         rep.Health,
			NodeIDs:       ids,
			RegistryEpoch: rep.Registry.Epoch,
			RegistryStale: rep.Registry.Stale,
			TotalSamples:  rep.Info.TotalSamples,
		})
		resp.Nodes = append(resp.Nodes, rep.Health...)
	}
	writeJSON(w, http.StatusOK, resp)
}

// recordStatus is a stored query's lifecycle phase.
type recordStatus string

const (
	recordPending recordStatus = "pending"
	recordDone    recordStatus = "done"
	recordError   recordStatus = "error"
)

// record is one retained query outcome.
type record struct {
	ID        string         `json:"id"`
	Status    recordStatus   `json:"status"`
	Submitted time.Time      `json:"submitted_at"`
	Finished  *time.Time     `json:"finished_at,omitempty"`
	Result    *queryResponse `json:"result,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// recordStore is a bounded id-keyed store with FIFO eviction.
type recordStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*record
	order []string
}

func newRecordStore(capacity int) *recordStore {
	return &recordStore{cap: capacity, byID: make(map[string]*record)}
}

func (rs *recordStore) put(id string, rec *record) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, exists := rs.byID[id]; !exists {
		if len(rs.order) == rs.cap {
			delete(rs.byID, rs.order[0])
			rs.order = rs.order[1:]
		}
		rs.order = append(rs.order, id)
	}
	rs.byID[id] = rec
}

func (rs *recordStore) update(id string, fn func(*record)) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rec, ok := rs.byID[id]; ok {
		fn(rec)
	}
}

// get returns a copy so callers can serialize it without holding the
// lock.
func (rs *recordStore) get(id string) (record, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rec, ok := rs.byID[id]
	if !ok {
		return record{}, false
	}
	return *rec, true
}
