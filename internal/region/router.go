package region

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/plan"
	"qens/internal/query"
	"qens/internal/registry"
	"qens/internal/rng"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// Config parameterizes the root coordinator.
type Config struct {
	// Spec is the model architecture every participant trains; the
	// root draws the per-query model seed, exactly like a single
	// leader would.
	Spec ml.Spec
	// LocalEpochs is the paper's E (default 5).
	LocalEpochs int
	// TolerateFailures skips participants whose round failed instead
	// of aborting the query, as long as one participant succeeds.
	TolerateFailures bool
	// Seed drives the root's stochastic choices (random selection,
	// model init). With the same seed, fleet and query sequence, the
	// sharded topology reproduces the single-leader path bit-exactly.
	Seed uint64
	// ReuseIoU enables the root-side result reuse cache at this IoU
	// threshold (0 disables). Entries are fenced per region epoch: a
	// requantize inside one shard kills only the entries that routed
	// through it.
	ReuseIoU float64
	// ReuseCap bounds the reuse cache (default 32 when enabled).
	ReuseCap int
	// ApproxCoverage enables the root's approximate answering tier:
	// after an exact-IoU miss, a basis-valid cached entry covering at
	// least this fraction of the query rectangle's volume still
	// serves it — zero regional fan-out, zero training RPCs. Requires
	// ReuseIoU != 0; 0 disables (bit-exact with the plain cache).
	ApproxCoverage float64
}

func (c Config) withDefaults() Config {
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 5
	}
	if c.ReuseCap == 0 {
		c.ReuseCap = 32
	}
	return c
}

// member is the router's per-region handle: the service plus the
// latest epoch observed on any response from it.
type member struct {
	svc    Service
	id     string
	epoch  atomic.Uint64 // newest epoch seen on any RPC response
	routed atomic.Int64  // queries whose fan-out included this region
}

// observe folds a response-reported epoch into the member's high-water
// mark; reports whether it moved.
func (m *member) observe(epoch uint64) bool {
	for {
		cur := m.epoch.Load()
		if epoch <= cur {
			return false
		}
		if m.epoch.CompareAndSwap(cur, epoch) {
			return true
		}
	}
}

// topology is one immutable routing view: the region covering rects
// indexed in an R-tree, the global roster assembled from per-region
// membership, and the epochs it was built from. It is revalidated
// against each member's latest observed epoch and rebuilt when any
// shard moved.
type topology struct {
	gen     uint64
	infos   []Info
	epochs  []uint64
	index   *geometry.RTree
	space   geometry.Rect
	roster  []NodeInfo
	nodeIDs []string
	byNode  map[string]int // node id -> member index
	total   int            // fleet-wide Σ|D_i|
	dims    int
}

// Router is the root coordinator of the hierarchical federation: the
// gateway-facing executor that routes each query rectangle to the
// overlapping regions, merges their shard rankings into one global
// candidate set, applies the selection policy, fans the training round
// out over the shards, and aggregates the returned local models.
type Router struct {
	cfg     Config
	members []*member
	src     *rng.Source
	tracer  *telemetry.Tracer

	topoMu sync.Mutex
	topo   atomic.Pointer[topology]
	gen    atomic.Uint64

	cache *reuseCache

	queries       atomic.Int64
	spanning      atomic.Int64 // fan-outs that hit every region
	noRoute       atomic.Int64 // queries rejected with zero overlapping regions
	regionsPruned atomic.Int64 // regions skipped by the Eq. 2 routing bound
	topoPatches   atomic.Int64 // pushed Infos folded in without a rebuild
	selectMu      sync.Mutex   // serializes selection RNG draws with the seed draw
	metricReg     *telemetry.Registry
}

// NewRouter builds a root coordinator over the regional services. No
// RPC is issued until the first query (or an explicit Space/Stats
// call) resolves the topology.
func NewRouter(cfg Config, services []Service) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("region: %w", err)
	}
	if cfg.LocalEpochs < 1 {
		return nil, fmt.Errorf("region: local epochs %d < 1", cfg.LocalEpochs)
	}
	if len(services) == 0 {
		return nil, errors.New("region: router needs at least one region")
	}
	r := &Router{cfg: cfg, src: rng.New(cfg.Seed), metricReg: telemetry.Default()}
	seen := map[string]bool{}
	for _, svc := range services {
		if svc == nil {
			return nil, errors.New("region: nil region service")
		}
		if seen[svc.ID()] {
			return nil, fmt.Errorf("region: duplicate region id %q", svc.ID())
		}
		seen[svc.ID()] = true
		r.members = append(r.members, &member{svc: svc, id: svc.ID()})
	}
	if cfg.ReuseIoU != 0 {
		c, err := newReuseCache(cfg.ReuseIoU, cfg.ReuseCap, cfg.ApproxCoverage)
		if err != nil {
			return nil, err
		}
		r.cache = c
	} else if cfg.ApproxCoverage != 0 {
		return nil, errors.New("region: approx coverage requires the reuse cache (ReuseIoU != 0)")
	}
	r.metricReg.SetHelp("qens_region_routed_total", "Queries fanned out to each region by the root coordinator.")
	return r, nil
}

// SetTracer pins a tracer to the router (overriding the process
// default). Pass nil to fall back to telemetry.DefaultTracer.
func (r *Router) SetTracer(t *telemetry.Tracer) { r.tracer = t }

func (r *Router) activeTracer() *telemetry.Tracer {
	if r.tracer != nil {
		return r.tracer
	}
	return telemetry.DefaultTracer()
}

// Regions returns the region ids in construction order.
func (r *Router) Regions() []string {
	out := make([]string, len(r.members))
	for i, m := range r.members {
		out[i] = m.id
	}
	return out
}

// observeEpoch folds a response epoch into member i's high-water mark.
func (r *Router) observeEpoch(i int, epoch uint64) {
	if epoch == 0 {
		return
	}
	r.members[i].observe(epoch)
}

// topoValid reports whether every member's latest observed epoch still
// matches the topology's build basis.
func (r *Router) topoValid(t *topology) bool {
	for i, m := range r.members {
		if m.epoch.Load() > t.epochs[i] {
			return false
		}
	}
	return true
}

// topology resolves the current routing view, rebuilding it when any
// region reported a newer epoch since the last build. The steady-state
// path is one atomic load plus an epoch scan — no locks, no RPCs.
func (r *Router) topology(ctx context.Context) (*topology, error) {
	if t := r.topo.Load(); t != nil && r.topoValid(t) {
		return t, nil
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	if t := r.topo.Load(); t != nil && r.topoValid(t) {
		return t, nil
	}

	infos := make([]Info, len(r.members))
	errs := make([]error, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			infos[i], errs[i] = m.svc.Info(ctx)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("region: info from %s: %w", r.members[i].id, err)
		}
	}

	t := &topology{
		infos:  infos,
		epochs: make([]uint64, len(infos)),
		byNode: map[string]int{},
		dims:   -1,
	}
	entries := make([]geometry.Entry, len(infos))
	for i, info := range infos {
		if len(info.Nodes) == 0 {
			return nil, fmt.Errorf("region: %s reports no members", r.members[i].id)
		}
		if t.dims == -1 {
			t.dims = info.Dims
			t.space = info.Bounds.Clone()
		} else {
			if info.Dims != t.dims {
				return nil, fmt.Errorf("region: %s advertises %d dims, fleet has %d", r.members[i].id, info.Dims, t.dims)
			}
			t.space = t.space.Union(info.Bounds)
		}
		t.epochs[i] = info.Epoch
		t.total += info.TotalSamples
		entries[i] = geometry.Entry{Rect: info.Bounds, ID: i}
		for _, n := range info.Nodes {
			if _, dup := t.byNode[n.NodeID]; dup {
				return nil, fmt.Errorf("region: node %s claimed by two regions", n.NodeID)
			}
			t.byNode[n.NodeID] = i
			t.roster = append(t.roster, n)
		}
	}
	index, err := geometry.BuildRTree(entries, 0)
	if err != nil {
		return nil, fmt.Errorf("region: routing index: %w", err)
	}
	t.index = index
	sort.SliceStable(t.roster, func(a, b int) bool {
		if t.roster[a].RosterIndex != t.roster[b].RosterIndex {
			return t.roster[a].RosterIndex < t.roster[b].RosterIndex
		}
		return t.roster[a].NodeID < t.roster[b].NodeID
	})
	t.nodeIDs = make([]string, len(t.roster))
	for i, n := range t.roster {
		t.nodeIDs[i] = n.NodeID
	}
	t.gen = r.gen.Add(1)
	for i := range r.members {
		r.members[i].observe(t.epochs[i])
	}
	r.topo.Store(t)
	return t, nil
}

// ApplyRegionInfo folds one region's pushed Info into the routing view
// without the full Info re-fetch fan-out that a topology rebuild costs:
// the region's covering rect, epoch and sample count are patched into a
// fresh immutable topology and the region R-tree is rebuilt locally
// (over R region rects — cheap — not over the fleet). Epoch-fenced and
// idempotent: an Info no newer than the built basis is dropped, so
// out-of-order delivery from rapid shard publications cannot regress
// the view. A membership change (nodes joined/left the shard) falls
// back to invalidation — the next query re-fetches every region's Info,
// since cross-region rosters must stay consistent. Reports whether the
// routing view was patched in place.
func (r *Router) ApplyRegionInfo(info Info) bool {
	mi := -1
	for i, m := range r.members {
		if m.id == info.RegionID {
			mi = i
			break
		}
	}
	if mi == -1 || info.Epoch == 0 {
		return false
	}
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	t := r.topo.Load()
	if t == nil {
		// Nothing built yet: record the epoch so the first topology()
		// includes at least this state.
		r.members[mi].observe(info.Epoch)
		return false
	}
	if info.Epoch <= t.epochs[mi] {
		return false // stale or duplicate push
	}
	if len(info.Nodes) != len(t.infos[mi].Nodes) || info.Dims != t.dims {
		r.members[mi].observe(info.Epoch) // invalidate: full rebuild
		return false
	}
	prevNodes := t.infos[mi].Nodes
	for i, n := range info.Nodes {
		if n.NodeID != prevNodes[i].NodeID || n.RosterIndex != prevNodes[i].RosterIndex {
			r.members[mi].observe(info.Epoch)
			return false
		}
	}

	nt := &topology{
		infos:   append([]Info(nil), t.infos...),
		epochs:  append([]uint64(nil), t.epochs...),
		roster:  t.roster, // membership unchanged: share the roster
		nodeIDs: t.nodeIDs,
		byNode:  t.byNode,
		dims:    t.dims,
	}
	nt.infos[mi] = info
	nt.epochs[mi] = info.Epoch
	entries := make([]geometry.Entry, len(nt.infos))
	for i, ri := range nt.infos {
		if i == 0 {
			nt.space = ri.Bounds.Clone()
		} else {
			nt.space = nt.space.Union(ri.Bounds)
		}
		nt.total += ri.TotalSamples
		entries[i] = geometry.Entry{Rect: ri.Bounds, ID: i}
	}
	index, err := geometry.BuildRTree(entries, 0)
	if err != nil {
		// Malformed pushed bounds: invalidate instead of patching.
		r.members[mi].observe(info.Epoch)
		return false
	}
	nt.index = index
	nt.gen = r.gen.Add(1)
	r.members[mi].observe(info.Epoch)
	r.topo.Store(nt)
	r.topoPatches.Add(1)
	return true
}

// TopologyPatches reports how many pushed region Infos were folded
// into the routing view in place (vs full rebuilds).
func (r *Router) TopologyPatches() int64 { return r.topoPatches.Load() }

// NodeIDs returns the global fleet roster in roster order, resolving
// the topology if needed.
func (r *Router) NodeIDs(ctx context.Context) ([]string, error) {
	t, err := r.topology(ctx)
	if err != nil {
		return nil, err
	}
	return t.nodeIDs, nil
}

// Space returns the global data space: the union of every region's
// covering rectangle.
func (r *Router) Space(ctx context.Context) (geometry.Rect, error) {
	t, err := r.topology(ctx)
	if err != nil {
		return geometry.Rect{}, err
	}
	return t.space, nil
}

// route picks the regions that could hold supporting clusters for the
// query. Only the paper's query-driven mechanism may prune: every
// other selector picks by roster position (or warm-up loss), so its
// candidate set must span the whole fleet.
//
// Pruning must be sound against Eq. 2, which scores support as the
// per-dimension MEAN of interval overlaps — a cluster overlapping the
// query in a single dimension still earns h up to overlapDims/dims.
// So a geometric R-tree hit (full intersection) is a definite route,
// and the remaining regions are admitted whenever that Eq. 2 upper
// bound over their covering rectangle clears ε; a region is pruned
// only when the bound proves every member cluster ranks below the
// support threshold. Returns member indices in ascending order. A
// query no region can support has no supporting cluster anywhere, so
// it surfaces selection.ErrNoCandidates — the gateway's 422
// no-candidates taxonomy, not a routing failure.
func (r *Router) route(t *topology, q query.Query, sel selection.Selector, eps float64) ([]int, error) {
	_, prune := sel.(selection.QueryDriven)
	all := make([]int, len(r.members))
	for i := range all {
		all[i] = i
	}
	if !prune {
		return all, nil
	}
	// Rectangle-spanning fallback: a query covering the whole indexed
	// space fans out everywhere without walking the tree.
	if q.Bounds.Dims() == t.dims && q.Bounds.ContainsRect(t.space) {
		r.spanning.Add(1)
		return all, nil
	}
	hit := make([]bool, len(r.members))
	err := t.index.Search(q.Bounds, func(e geometry.Entry) bool {
		hit[e.ID] = true
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("region: route %s: %w", q.ID, err)
	}
	var routed []int
	for i := range r.members {
		if !hit[i] && !regionCanSupport(q.Bounds, t.infos[i].Bounds, eps) {
			continue
		}
		routed = append(routed, i)
	}
	r.regionsPruned.Add(int64(len(all) - len(routed)))
	if len(routed) == 0 {
		r.noRoute.Add(1)
		return nil, selection.ErrNoCandidates
	}
	if len(routed) == len(all) {
		r.spanning.Add(1)
	}
	return routed, nil
}

// regionCanSupport is the Eq. 2 admission bound: a cluster inside the
// region covering rect can only earn per-dimension overlap in the
// dimensions where the query and the covering rect intersect at all,
// so its support h is at most overlapDims/dims. A region whose bound
// falls below ε provably holds no supporting cluster.
func regionCanSupport(q, region geometry.Rect, eps float64) bool {
	dims := q.Dims()
	if dims == 0 || dims != region.Dims() {
		return true // malformed probe: let the region-side planner decide
	}
	overlapDims := 0
	for d := 0; d < dims; d++ {
		if q.Min[d] <= region.Max[d] && q.Max[d] >= region.Min[d] {
			overlapDims++
		}
	}
	return float64(overlapDims)/float64(dims) >= eps
}

// epsilonFor mirrors plan.PlanOn's ε resolution so cross-region
// rankings thre­shold exactly like single-leader plans.
func epsilonFor(sel selection.Selector) float64 {
	if qd, ok := sel.(selection.QueryDriven); ok {
		return qd.Epsilon
	}
	eps := plan.DefaultEpsilon
	if ec, ok := sel.(selection.EpsilonCarrier); ok {
		if e := ec.SupportEpsilon(); e > 0 {
			eps = e
		}
	}
	return eps
}

// planFanout routes the query, fans Plan RPCs out to the routed
// regions, and merges their ranking rows into global roster order.
// Returns the merged rows, the routed member indices and the per-region
// epoch basis the rankings derive from.
func (r *Router) planFanout(ctx context.Context, parent *telemetry.SpanHandle, t *topology, q query.Query, sel selection.Selector, eps float64) ([]selection.NodeRank, []int, []epochPair, error) {
	routed, err := r.route(t, q, sel, eps)
	if err != nil {
		return nil, nil, nil, err
	}
	// The paper's stateless query-driven policy never reads per-node
	// overlap vectors, so its fan-out may take the regions'
	// R-tree-pruned kernel; every other selector needs full-fidelity
	// rows.
	_, queryDriven := sel.(selection.QueryDriven)
	resps := make([]PlanResponse, len(routed))
	errs := make([]error, len(routed))
	var wg sync.WaitGroup
	for k, mi := range routed {
		wg.Add(1)
		go func(k, mi int) {
			defer wg.Done()
			m := r.members[mi]
			var sp *telemetry.SpanHandle
			if parent != nil {
				sp = parent.Child("region.plan")
				sp.SetAttr("region", m.id)
			}
			resps[k], errs[k] = m.svc.Plan(ctx, PlanRequest{Query: q, Epsilon: eps, QueryDriven: queryDriven})
			if sp != nil {
				sp.End(errs[k])
			}
		}(k, mi)
	}
	wg.Wait()
	basis := make([]epochPair, len(routed))
	var merged []selection.NodeRank
	for k, mi := range routed {
		if errs[k] != nil {
			return nil, nil, nil, fmt.Errorf("region: plan on %s: %w", r.members[mi].id, errs[k])
		}
		r.observeEpoch(mi, resps[k].Epoch)
		basis[k] = epochPair{member: mi, epoch: resps[k].Epoch}
		merged = append(merged, resps[k].Ranks...)
	}
	// Canonical global order: sort by roster index (node id breaks
	// ties). Selectors that pick by position and the order-sensitive
	// ensemble summation both require the exact single-leader order.
	rosterIdx := make(map[string]int, len(t.roster))
	for i, n := range t.roster {
		rosterIdx[n.NodeID] = i
	}
	sort.SliceStable(merged, func(a, b int) bool {
		ia, ib := rosterIdx[merged[a].NodeID], rosterIdx[merged[b].NodeID]
		if ia != ib {
			return ia < ib
		}
		return merged[a].NodeID < merged[b].NodeID
	})
	return merged, routed, basis, nil
}

// selectionContext builds the selector Context: the root's RNG (kept
// in lock-step with a single leader seeded identically) and a warm-up
// evaluator stub — the §II pre-test needs leader-local data the root
// doesn't hold, so game-theory selection is served by the single-leader
// topology only.
func (r *Router) selectionContext() *selection.Context {
	return &selection.Context{
		RNG: r.src,
		Evaluate: func(string) (float64, error) {
			return 0, errors.New("region: warm-up evaluation is not available in the sharded topology")
		},
	}
}

// selectErr mirrors the single-leader error shape so gateway taxonomy
// (422 on ErrNoCandidates) keeps working unchanged.
func selectErr(sel selection.Selector, q query.Query, err error) error {
	return fmt.Errorf("federation: %s selection for %s: %w", sel.Name(), q.ID, err)
}

// ExecuteQuery implements the gateway Executor seam: plan across the
// routed regions, select globally, train across the shards, aggregate.
// The kind says which serving tier answered: exact root-cache hit,
// approximate coverage-based serve, or a fresh regional fan-out.
func (r *Router) ExecuteQuery(ctx context.Context, q query.Query, sel selection.Selector, agg federation.Aggregation) (*federation.Result, federation.ServeKind, error) {
	if err := ctx.Err(); err != nil {
		return nil, federation.ServeFresh, err
	}
	// Only deterministic stateless policies are reusable: a random
	// draw must stay in lock-step with the RNG stream, and stateful
	// selectors advance per invocation.
	cacheable := r.cache != nil && reusableSelector(sel)
	if cacheable {
		if res, approx := r.cache.lookup(q, sel.Name(), agg.String(), r.memberEpoch); res != nil {
			if approx {
				return res, federation.ServeApprox, nil
			}
			return res, federation.ServeExact, nil
		}
	}
	res, basis, err := r.execute(ctx, q, sel, agg)
	if err != nil {
		return nil, federation.ServeFresh, err
	}
	if cacheable {
		r.cache.store(q, sel.Name(), agg.String(), res, basis)
	}
	return res, federation.ServeFresh, nil
}

// memberEpoch is the cache's validation hook: the latest epoch
// observed from member i.
func (r *Router) memberEpoch(i int) uint64 { return r.members[i].epoch.Load() }

// reusableSelector reports whether results under sel may be served
// from the reuse cache.
func reusableSelector(sel selection.Selector) bool {
	switch sel.(type) {
	case selection.QueryDriven, selection.AllNodes:
		return true
	default:
		return false
	}
}

// execute runs one query end to end across the sharded topology.
func (r *Router) execute(ctx context.Context, q query.Query, sel selection.Selector, agg federation.Aggregation) (_ *federation.Result, _ []epochPair, retErr error) {
	start := time.Now()
	qspan := r.activeTracer().StartTrace("query")
	qspan.SetAttr("query", q.ID)
	qspan.SetAttr("selector", sel.Name())
	qspan.SetAttr("topology", "sharded")
	defer func() { qspan.End(retErr) }()
	r.queries.Add(1)

	if qd, ok := sel.(selection.QueryDriven); ok {
		if (qd.TopL > 0) == (qd.Psi > 0) {
			return nil, nil, selectErr(sel, q, fmt.Errorf("selection: query-driven needs exactly one of TopL (%d) or Psi (%v)", qd.TopL, qd.Psi))
		}
	}
	cs, ok := sel.(selection.CandidateSelector)
	if !ok {
		return nil, nil, fmt.Errorf("region: selector %s is not supported by the sharded topology", sel.Name())
	}

	t, err := r.topology(ctx)
	if err != nil {
		return nil, nil, err
	}

	// Stage 1: route + plan fan-out + global selection, under one
	// selection span like the single-leader path.
	selStart := time.Now()
	selSpan := qspan.Child("selection")
	eps := epsilonFor(sel)
	merged, routed, basis, err := r.planFanout(ctx, selSpan, t, q, sel, eps)
	var parts []selection.Participant
	var spec ml.Spec
	if err == nil {
		for _, mi := range routed {
			r.members[mi].routed.Add(1)
			r.metricReg.Counter("qens_region_routed_total", telemetry.Label{Key: "region", Value: r.members[mi].id}).Inc()
		}
		set := selection.CandidateSet{Query: q, Epsilon: eps, Ranks: merged}
		// One lock around the selection draw and the model-seed draw
		// keeps the RNG stream per-query atomic, mirroring the
		// single-leader executor's draw order under concurrency.
		r.selectMu.Lock()
		parts, err = cs.SelectFrom(&set, r.selectionContext())
		if err == nil {
			spec = r.cfg.Spec
			spec.Seed = uint64(r.src.Int63())
		}
		r.selectMu.Unlock()
	}
	selSpan.End(err)
	if err != nil {
		return nil, nil, selectErr(sel, q, err)
	}
	selectionTime := time.Since(selStart)

	// Stage 2: initial global model at the root (exactly the
	// single-leader executor's draw), then the region train fan-out.
	global, err := spec.New()
	if err != nil {
		return nil, nil, err
	}
	initial := global.Params()
	paramBytes := int64(8 * len(initial.Values))

	res := &federation.Result{
		Query:        q,
		Epoch:        t.gen,
		Selector:     sel.Name(),
		Aggregation:  agg,
		Participants: parts,
	}
	res.Stats.SamplesAllNodes = t.total

	outs, err := r.trainFanout(ctx, qspan, t, q, spec, initial, parts)
	if err != nil {
		return nil, nil, err
	}

	// Stage 3: collect in global participant order and aggregate —
	// the executor's collection loop, verbatim semantics.
	ranks := make([]float64, 0, len(parts))
	var firstErr error
	for gi, p := range parts {
		o := outs[gi]
		round := federation.NodeRound{NodeID: p.NodeID, Elapsed: time.Duration(o.ElapsedNS)}
		if o.Err != "" {
			round.Err = o.Err
			res.NodeRounds = append(res.NodeRounds, round)
			if r.cfg.TolerateFailures {
				res.Failed = append(res.Failed, p.NodeID)
				continue
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("federation: training on %s: %s", p.NodeID, o.Err)
			}
			continue
		}
		res.NodeRounds = append(res.NodeRounds, round)
		res.LocalParams = append(res.LocalParams, o.Params)
		ranks = append(ranks, p.Rank)
		res.Stats.TrainTime += o.TrainTime
		res.Stats.SamplesUsed += o.SamplesUsed
		res.Stats.SamplesSelectedNodes += o.TotalSamples
		res.Stats.BytesUp += paramBytes
		res.Stats.BytesDown += int64(8 * len(o.Params.Values))
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if len(res.LocalParams) == 0 {
		return nil, nil, fmt.Errorf("federation: every selected participant failed for %s", q.ID)
	}

	aggSpan := qspan.Child("aggregation")
	ensemble, err := federation.NewEnsemble(r.cfg.Spec, res.LocalParams, ranks, agg)
	aggSpan.End(err)
	if err != nil {
		return nil, nil, err
	}
	res.Ensemble = ensemble
	res.Stats.SelectionTime = selectionTime
	res.Stats.WallTime = time.Since(start)
	r.metricReg.Counter("qens_queries_total", telemetry.Label{Key: "selector", Value: sel.Name()}).Inc()
	r.metricReg.Histogram("qens_selection_ms").ObserveDuration(selectionTime)
	return res, basis, nil
}

// trainFanout groups the participants by owning region (preserving
// global participant order inside each group), issues one Train RPC
// per region concurrently, and scatters the results back into global
// participant slots. Remote region and node phase spans are re-parented
// under the per-region RPC span, completing the cross-process trace.
func (r *Router) trainFanout(ctx context.Context, qspan *telemetry.SpanHandle, t *topology, q query.Query, spec ml.Spec, initial ml.Params, parts []selection.Participant) ([]RoundResult, error) {
	type group struct {
		mi    int
		parts []selection.Participant
		slots []int
	}
	byMember := map[int]*group{}
	var order []int
	for gi, p := range parts {
		mi, ok := t.byNode[p.NodeID]
		if !ok {
			return nil, fmt.Errorf("region: participant %s belongs to no region", p.NodeID)
		}
		g := byMember[mi]
		if g == nil {
			g = &group{mi: mi}
			byMember[mi] = g
			order = append(order, mi)
		}
		g.parts = append(g.parts, p)
		g.slots = append(g.slots, gi)
	}

	outs := make([]RoundResult, len(parts))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for k, mi := range order {
		wg.Add(1)
		go func(k int, g *group) {
			defer wg.Done()
			m := r.members[g.mi]
			rspan := qspan.Child("region.train")
			rspan.SetAttr("region", m.id)
			resp, err := m.svc.Train(ctx, TrainRequest{
				QueryID:      q.ID,
				Spec:         spec,
				Params:       initial,
				Participants: g.parts,
				LocalEpochs:  r.cfg.LocalEpochs,
				TraceID:      rspan.TraceID(),
				SpanID:       rspan.SpanID(),
			})
			if err == nil && len(resp.Results) != len(g.parts) {
				err = fmt.Errorf("region: %s returned %d results for %d participants", m.id, len(resp.Results), len(g.parts))
			}
			if err != nil {
				rspan.End(err)
				errs[k] = fmt.Errorf("region: training on %s: %w", m.id, err)
				return
			}
			r.observeEpoch(g.mi, resp.Epoch)
			tr := r.activeTracer()
			federation.RecordRemoteSpans(tr, rspan, m.id, resp.Spans)
			for j, rr := range resp.Results {
				federation.RecordRemoteSpans(tr, rspan, rr.NodeID, rr.Spans)
				outs[g.slots[j]] = rr
			}
			rspan.End(nil)
		}(k, byMember[mi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// PlanKey computes the coalescing/reuse fingerprint for a query
// without training: the routed regions' epoch basis plus the selected
// participant set, mirroring plan.Plan.Key. Only deterministic
// selectors (query-driven, all-nodes) should be keyed — the gateway's
// plan-ahead path enforces that.
func (r *Router) PlanKey(ctx context.Context, q query.Query, sel selection.Selector) (string, error) {
	cs, ok := sel.(selection.CandidateSelector)
	if !ok {
		return "", fmt.Errorf("region: selector %s is not supported by the sharded topology", sel.Name())
	}
	t, err := r.topology(ctx)
	if err != nil {
		return "", err
	}
	eps := epsilonFor(sel)
	merged, routed, basis, err := r.planFanout(ctx, nil, t, q, sel, eps)
	if err != nil {
		return "", selectErr(sel, q, err)
	}
	set := selection.CandidateSet{Query: q, Epsilon: eps, Ranks: merged}
	parts, err := cs.SelectFrom(&set, r.selectionContext())
	if err != nil {
		return "", selectErr(sel, q, err)
	}
	var b strings.Builder
	b.Grow(24 + 16*len(parts))
	for k, mi := range routed {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(r.members[mi].id)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(basis[k].epoch, 10))
	}
	b.WriteByte('|')
	b.WriteString(sel.Name())
	for _, p := range parts {
		b.WriteByte('|')
		b.WriteString(p.NodeID)
		if p.Clusters != nil {
			b.WriteByte(':')
			for j, c := range p.Clusters {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(c))
			}
		}
	}
	return b.String(), nil
}

// Explain is the EXPLAIN surface behind the gateway's /v1/plan in
// router mode: the full cross-region ranking (every region is planned,
// routing pruning does not apply) plus the participants the policy
// would select.
type Explain struct {
	Epsilon      float64
	Generation   uint64
	Rankings     []selection.NodeRank
	Participants []selection.Participant
	Regions      []string
}

// ExplainQuery plans the query across all regions and applies the
// selection policy without training.
func (r *Router) ExplainQuery(ctx context.Context, q query.Query, sel selection.Selector) (*Explain, error) {
	cs, ok := sel.(selection.CandidateSelector)
	if !ok {
		return nil, fmt.Errorf("region: selector %s is not supported by the sharded topology", sel.Name())
	}
	t, err := r.topology(ctx)
	if err != nil {
		return nil, err
	}
	eps := epsilonFor(sel)
	// Plan against every region — EXPLAIN output shows the complete
	// fleet ranking, including nodes routing would prune.
	all := allNodesSelector{}
	merged, _, _, err := r.planFanout(ctx, nil, t, q, all, eps)
	if err != nil {
		return nil, selectErr(sel, q, err)
	}
	set := selection.CandidateSet{Query: q, Epsilon: eps, Ranks: merged}
	r.selectMu.Lock()
	parts, err := cs.SelectFrom(&set, r.selectionContext())
	r.selectMu.Unlock()
	if err != nil {
		return nil, selectErr(sel, q, err)
	}
	return &Explain{
		Epsilon:      eps,
		Generation:   t.gen,
		Rankings:     merged,
		Participants: parts,
		Regions:      r.Regions(),
	}, nil
}

// allNodesSelector forces planFanout's route() to fan out everywhere
// (it is not QueryDriven) while keeping the caller's ε.
type allNodesSelector = selection.AllNodes

// RegionStat is one region's routing view in RouterStats. Registry
// carries the region's own registry counters (index/prune/delta
// refresh) when the region answered its Stats RPC in time; it is nil
// for regions that failed to report — routing stats stay available
// regardless.
type RegionStat struct {
	RegionID string          `json:"region_id"`
	Nodes    int             `json:"nodes"`
	Epoch    uint64          `json:"epoch"`
	Routed   int64           `json:"routed"`
	NodeIDs  []string        `json:"node_ids,omitempty"`
	Registry *registry.Stats `json:"registry,omitempty"`
}

// RouterStats is the root coordinator's introspection block served
// under /v1/stats.
type RouterStats struct {
	Generation    uint64       `json:"generation"`
	Queries       int64        `json:"queries"`
	Spanning      int64        `json:"spanning_fanouts"`
	NoRoute       int64        `json:"no_route_rejects"`
	RegionsPruned int64        `json:"regions_pruned"`
	TopoPatches   int64        `json:"topology_patches"`
	Reuse         *ReuseStats  `json:"reuse_cache,omitempty"`
	Regions       []RegionStat `json:"regions"`
}

// Stats resolves the topology and reports per-region shard membership,
// routing counts, epochs and (best-effort) registry counters.
func (r *Router) Stats(ctx context.Context) (RouterStats, error) {
	t, err := r.topology(ctx)
	if err != nil {
		return RouterStats{}, err
	}
	st := RouterStats{
		Generation:    t.gen,
		Queries:       r.queries.Load(),
		Spanning:      r.spanning.Load(),
		NoRoute:       r.noRoute.Load(),
		RegionsPruned: r.regionsPruned.Load(),
		TopoPatches:   r.topoPatches.Load(),
	}
	if r.cache != nil {
		rs := r.cache.stats()
		st.Reuse = &rs
	}
	// Best-effort per-region registry counters: a slow or failed region
	// leaves its Registry block nil instead of failing the whole report.
	regStats := make([]*registry.Stats, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			if rs, err := m.svc.Stats(ctx); err == nil {
				cp := rs.Registry
				regStats[i] = &cp
			}
		}(i, m)
	}
	wg.Wait()
	for i, m := range r.members {
		ids := make([]string, 0, len(t.infos[i].Nodes))
		for _, n := range t.infos[i].Nodes {
			ids = append(ids, n.NodeID)
		}
		st.Regions = append(st.Regions, RegionStat{
			RegionID: m.id,
			Nodes:    len(ids),
			Epoch:    m.epoch.Load(),
			Routed:   m.routed.Load(),
			NodeIDs:  ids,
			Registry: regStats[i],
		})
	}
	return st, nil
}

// FleetReport gathers every region's Stats (registry state + per-node
// health) for the gateway's /v1/fleet.
func (r *Router) FleetReport(ctx context.Context) ([]Stats, error) {
	out := make([]Stats, len(r.members))
	errs := make([]error, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			out[i], errs[i] = m.svc.Stats(ctx)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("region: stats from %s: %w", r.members[i].id, err)
		}
	}
	return out, nil
}
