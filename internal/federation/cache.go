package federation

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"qens/internal/geometry"
	"qens/internal/query"
	"qens/internal/telemetry"
)

// Query-result reuse, following the knowledge-reuse idea of Long et
// al. (the paper's reference [5]): analytics workloads are bursty and
// self-similar, so a model trained for one query rectangle often
// answers the next. ReuseCache keeps recently built ensembles keyed by
// their query rectangles and serves two tiers:
//
//   - exact tier: a new query whose IoU with a cached rectangle
//     reaches MinIoU is served verbatim, skipping selection and
//     training entirely (the original behavior);
//   - approximate tier (opt-in, ApproxConfig): a query that misses
//     the exact tier is still served from a cached ensemble when the
//     predicted answer error clears a bound. The predictor combines
//     training-rectangle coverage (geometry.QueryCoverageFlat over
//     Result.TrainMins/TrainMaxs) with an online per-entry residual
//     learned from probe rounds — every ProbeEvery-th approx-servable
//     query trains for real anyway and scores the cached answer
//     against the fresh one, feeding the residual EWMA and evicting
//     entries whose residual outgrows the bound.
//
// Lookups are lock-free: readers load an immutable cacheView (entry
// slice + R-tree indexes) through an atomic pointer, so the old
// O(capacity) mutex-held IoU scan is gone. Mutations serialize on a
// mutex and publish a rebuilt view.

// ApproxConfig tunes the approximate answering tier. The zero value
// disables it, which keeps the cache's observable behavior bit-exact
// with the original exact-IoU-only implementation.
type ApproxConfig struct {
	// MaxPredictedError is the serve bound: a cached ensemble answers
	// a query only when (1 - coverage) + residual stays at or below
	// it. 0 disables the tier entirely.
	MaxPredictedError float64
	// MinCoverage floors the coverage term: entries whose training
	// rectangles cover less than this fraction of the query rectangle
	// are never considered, whatever their residual. Default 0.5.
	MinCoverage float64
	// ProbeEvery sends every Nth approx-servable query to federated
	// training anyway and scores the cached answer against the fresh
	// one (deterministic modulus, no RNG draw — seeded replays stay
	// bit-exact). Default 8; negative disables probing.
	ProbeEvery int
	// ResidualAlpha is the EWMA step for the per-entry residual
	// estimate updated at each probe. Default 0.25.
	ResidualAlpha float64
}

// Enabled reports whether the approximate tier is on.
func (c ApproxConfig) Enabled() bool { return c.MaxPredictedError > 0 }

func (c ApproxConfig) withDefaults() ApproxConfig {
	if c.MinCoverage == 0 {
		c.MinCoverage = 0.5
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 8
	}
	if c.ResidualAlpha == 0 {
		c.ResidualAlpha = 0.25
	}
	return c
}

func (c ApproxConfig) validate() error {
	if c.MaxPredictedError < 0 {
		return fmt.Errorf("federation: approx max predicted error %v < 0", c.MaxPredictedError)
	}
	if c.MinCoverage < 0 || c.MinCoverage > 1 {
		return fmt.Errorf("federation: approx min coverage %v outside [0,1]", c.MinCoverage)
	}
	if c.ResidualAlpha < 0 || c.ResidualAlpha > 1 {
		return fmt.Errorf("federation: approx residual alpha %v outside [0,1]", c.ResidualAlpha)
	}
	return nil
}

// ServeKind says which path answered a query on the adaptive serving
// pipeline.
type ServeKind int

const (
	// ServeFresh: full federated training (cache miss).
	ServeFresh ServeKind = iota
	// ServeExact: exact-IoU reuse hit.
	ServeExact
	// ServeApprox: approximate model-answer — zero training RPCs.
	ServeApprox
	// ServeProbe: approx-servable, but trained anyway to score the
	// cached answer (the ground-truth feedback round).
	ServeProbe
)

// String implements fmt.Stringer for logs and stats.
func (k ServeKind) String() string {
	switch k {
	case ServeFresh:
		return "fresh"
	case ServeExact:
		return "exact"
	case ServeApprox:
		return "approx"
	case ServeProbe:
		return "probe"
	default:
		return fmt.Sprintf("ServeKind(%d)", int(k))
	}
}

// Reused reports whether the answer cost zero training RPCs.
func (k ServeKind) Reused() bool { return k == ServeExact || k == ServeApprox }

// cacheEntry wraps one cached result with its approx-tier bookkeeping.
// The residual is an EWMA of probe-measured relative divergence
// between the cached and freshly trained ensembles, stored as float64
// bits so probes and lookups never contend on a lock.
type cacheEntry struct {
	res *Result
	// seq is the insertion sequence number: the FIFO order and the
	// deterministic tie-break (older entry wins equal scores, which
	// reproduces the original first-match-wins scan order).
	seq      uint64
	trainBox geometry.Rect // bounding box of the training rectangles
	hasBox   bool

	residualBits atomic.Uint64
	probes       atomic.Int64
	served       atomic.Int64
}

func (e *cacheEntry) residual() float64 {
	return math.Float64frombits(e.residualBits.Load())
}

// observeResidual folds one probe measurement into the EWMA and
// returns the updated value.
func (e *cacheEntry) observeResidual(alpha, realized float64) float64 {
	for {
		old := e.residualBits.Load()
		cur := math.Float64frombits(old)
		var next float64
		if e.probes.Load() == 0 {
			next = realized
		} else {
			next = cur + alpha*(realized-cur)
		}
		if e.residualBits.CompareAndSwap(old, math.Float64bits(next)) {
			e.probes.Add(1)
			return next
		}
	}
}

// cacheView is the immutable read path: a snapshot of the entries plus
// R-tree indexes over their rectangles. dims > 0 means every entry
// shares that dimensionality and the trees are valid; dims == 0 means
// the entries are mixed (or absent) and readers fall back to a linear
// scan — still lock-free.
type cacheView struct {
	entries []*cacheEntry
	dims    int
	// exact indexes entry query rectangles; Entry.ID is the position
	// in entries. Positive IoU needs intersection, so a tree walk
	// visits a superset of every possible exact-tier candidate.
	exact *geometry.RTree
	// approx indexes training-rectangle bounding boxes for entries
	// that carry them; Entry.ID is the position in entries. Coverage
	// > 0 needs the query to intersect the box. Nil when the tier is
	// off or no entry has training bounds.
	approx *geometry.RTree
}

// ReuseCache is a bounded cache of query results, safe for concurrent
// use with lock-free lookups. Hit/miss/eviction totals are exported to
// the process-default telemetry registry (qens_reuse_cache_* and, for
// the approximate tier, qens_model_cache_*), so the gateway's /metrics
// and /v1/stats endpoints surface cache effectiveness live.
type ReuseCache struct {
	minIoU float64
	cap    int
	approx ApproxConfig

	view atomic.Pointer[cacheView]

	mu  sync.Mutex // serializes mutation; never held during lookups
	seq uint64

	probeTick atomic.Uint64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64 // capacity + residual-driven removals
	pruned     atomic.Int64 // epoch-invalidation removals
	approxHits atomic.Int64
	probes     atomic.Int64
	fallbacks  atomic.Int64 // approx tier consulted, bound not met

	hitsCtr       *telemetry.Counter
	missesCtr     *telemetry.Counter
	evictCapCtr   *telemetry.Counter
	evictEpochCtr *telemetry.Counter
	evictResCtr   *telemetry.Counter
	entriesGauge  *telemetry.Gauge
	approxCtr     *telemetry.Counter
	probesCtr     *telemetry.Counter
	fallbackCtr   *telemetry.Counter
	errGapHist    *telemetry.Histogram
}

// NewReuseCache builds a cache serving queries whose rectangle IoU
// with a cached query is at least minIoU (in (0, 1]; higher is
// stricter), holding at most capacity results. The approximate tier is
// off; see NewAdaptiveCache.
func NewReuseCache(minIoU float64, capacity int) (*ReuseCache, error) {
	return NewAdaptiveCache(minIoU, capacity, ApproxConfig{})
}

// NewAdaptiveCache is NewReuseCache plus the approximate answering
// tier configured by approx (zero value = disabled, bit-exact with
// NewReuseCache).
func NewAdaptiveCache(minIoU float64, capacity int, approx ApproxConfig) (*ReuseCache, error) {
	if minIoU <= 0 || minIoU > 1 {
		return nil, fmt.Errorf("federation: reuse IoU threshold %v outside (0,1]", minIoU)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("federation: reuse capacity %d < 1", capacity)
	}
	if err := approx.validate(); err != nil {
		return nil, err
	}
	if approx.Enabled() {
		approx = approx.withDefaults()
	}
	reg := telemetry.Default()
	reg.SetHelp("qens_reuse_cache_hits_total", "Queries answered from the reuse cache (IoU match).")
	reg.SetHelp("qens_reuse_cache_misses_total", "Queries that missed the reuse cache.")
	reg.SetHelp("qens_reuse_cache_evictions_total", "Cache entries removed, by reason (capacity, epoch, residual).")
	reg.SetHelp("qens_reuse_cache_entries", "Current reuse cache size (last mutated cache).")
	reg.SetHelp("qens_model_cache_approx_hits_total", "Queries served approximately from cached ensembles (zero training RPCs).")
	reg.SetHelp("qens_model_cache_probes_total", "Approx-servable queries trained anyway to score the cached answer.")
	reg.SetHelp("qens_model_cache_fallbacks_total", "Queries where the approx tier was consulted but the error bound was not met.")
	reg.SetHelp("qens_model_cache_err_gap", "Predicted minus probe-realized answer error (negative = underestimated).")
	return &ReuseCache{
		minIoU:        minIoU,
		cap:           capacity,
		approx:        approx,
		hitsCtr:       reg.Counter("qens_reuse_cache_hits_total"),
		missesCtr:     reg.Counter("qens_reuse_cache_misses_total"),
		evictCapCtr:   reg.Counter("qens_reuse_cache_evictions_total", telemetry.Label{Key: "reason", Value: "capacity"}),
		evictEpochCtr: reg.Counter("qens_reuse_cache_evictions_total", telemetry.Label{Key: "reason", Value: "epoch"}),
		evictResCtr:   reg.Counter("qens_reuse_cache_evictions_total", telemetry.Label{Key: "reason", Value: "residual"}),
		entriesGauge:  reg.Gauge("qens_reuse_cache_entries"),
		approxCtr:     reg.Counter("qens_model_cache_approx_hits_total"),
		probesCtr:     reg.Counter("qens_model_cache_probes_total"),
		fallbackCtr:   reg.Counter("qens_model_cache_fallbacks_total"),
		errGapHist:    reg.Histogram("qens_model_cache_err_gap"),
	}, nil
}

// Approx returns the approximate-tier configuration (zero when off).
func (c *ReuseCache) Approx() ApproxConfig { return c.approx }

// Lookup returns the best cached result whose query rectangle matches
// q at or above the IoU threshold, regardless of the summary epoch the
// result was built against.
func (c *ReuseCache) Lookup(q query.Query) (*Result, bool) {
	return c.lookup(q, 0)
}

// LookupEpoch is Lookup restricted to results built against summary
// epoch `epoch`. Entries stamped with an older epoch were trained on a
// fleet advertisement that has since been invalidated and are skipped;
// entries with Epoch 0 (built outside the registry pipeline, e.g. by
// legacy callers) match any epoch. epoch 0 disables the check.
func (c *ReuseCache) LookupEpoch(q query.Query, epoch uint64) (*Result, bool) {
	return c.lookup(q, epoch)
}

func (c *ReuseCache) lookup(q query.Query, epoch uint64) (*Result, bool) {
	var best *cacheEntry
	bestIoU := 0.0
	consider := func(e *cacheEntry) {
		r := e.res
		if r.Query.Dims() != q.Dims() {
			return
		}
		if epoch != 0 && r.Epoch != 0 && r.Epoch != epoch {
			return
		}
		iou := geometry.IoU(q.Bounds, r.Query.Bounds)
		if iou < c.minIoU {
			return
		}
		// Strictly-better IoU wins; ties go to the older entry, which
		// reproduces the original first-match-wins scan order exactly.
		if best == nil || iou > bestIoU || (iou == bestIoU && e.seq < best.seq) {
			best, bestIoU = e, iou
		}
	}
	if v := c.view.Load(); v != nil {
		c.scan(v, v.exact, q, consider)
	}
	if best == nil {
		c.misses.Add(1)
		if c.missesCtr != nil {
			c.missesCtr.Inc()
		}
		return nil, false
	}
	c.hits.Add(1)
	if c.hitsCtr != nil {
		c.hitsCtr.Inc()
	}
	return best.res, true
}

// scan drives consider over every candidate entry: a sublinear R-tree
// walk when the index applies (uniform dims matching the query), a
// lock-free linear pass otherwise. Indexes only prune — consider
// re-checks every predicate — so both paths pick identical winners.
func (c *ReuseCache) scan(v *cacheView, index *geometry.RTree, q query.Query, consider func(*cacheEntry)) {
	if v.dims > 0 && v.dims != q.Dims() {
		return // uniform-dims view that cannot match this query
	}
	if index != nil && v.dims == q.Dims() {
		if err := index.Search(q.Bounds, func(ent geometry.Entry) bool {
			consider(v.entries[ent.ID])
			return true
		}); err == nil {
			return
		}
	}
	for _, e := range v.entries {
		consider(e)
	}
}

// lookupApprox finds the cached entry with the lowest predicted error
// for q, returning it only when the prediction clears the configured
// bound. It does not touch hit/miss accounting — callers record the
// outcome once they decide between serving and probing.
func (c *ReuseCache) lookupApprox(q query.Query, epoch uint64) (*cacheEntry, float64, bool) {
	if !c.approx.Enabled() {
		return nil, 0, false
	}
	v := c.view.Load()
	if v == nil {
		return nil, 0, false
	}
	var best *cacheEntry
	bestPred := math.Inf(1)
	consider := func(e *cacheEntry) {
		r := e.res
		if !e.hasBox || r.TrainDims != q.Dims() {
			return
		}
		// The query must touch the trained bounding box: coverage is a
		// per-dimension mean, so a rectangle disjoint in one dimension
		// could still score — but extrapolating an ensemble to a
		// subspace it never saw is exactly what the error predictor
		// cannot bound. This also keeps the linear fallback identical
		// to the R-tree walk (which only visits intersecting boxes).
		if !e.trainBox.Intersects(q.Bounds) {
			return
		}
		if epoch != 0 && r.Epoch != 0 && r.Epoch != epoch {
			return
		}
		cov := geometry.QueryCoverageFlat(q.Bounds.Min, q.Bounds.Max, r.TrainMins, r.TrainMaxs)
		if cov < c.approx.MinCoverage {
			return
		}
		pred := (1 - cov) + e.residual()
		if best == nil || pred < bestPred || (pred == bestPred && e.seq < best.seq) {
			best, bestPred = e, pred
		}
	}
	c.scan(v, v.approx, q, consider)
	if best == nil || bestPred > c.approx.MaxPredictedError {
		return nil, 0, false
	}
	return best, bestPred, true
}

// Answer serves q from the cache without any fleet interaction: exact
// tier first, then the approximate tier. The gateway uses it to answer
// queries whose selection found no live candidates — a cached ensemble
// may still cover a rectangle no current advertisement supports.
func (c *ReuseCache) Answer(q query.Query, epoch uint64) (*Result, ServeKind, bool) {
	if hit, ok := c.lookup(q, epoch); ok {
		return hit, ServeExact, true
	}
	if ent, _, ok := c.lookupApprox(q, epoch); ok {
		c.recordApproxHit(ent)
		return ent.res, ServeApprox, true
	}
	return nil, ServeFresh, false
}

// Store records a freshly built result, evicting at capacity. When the
// result carries a summary epoch, entries built against strictly older
// epochs are pruned first — their models were trained on cluster
// advertisements that have since been invalidated, so they would only
// ever serve stale ensembles. Eviction is FIFO when the approximate
// tier is off (the original contract); with the tier on, the entry
// with the worst probe-measured residual goes first (oldest wins
// residual ties, degrading to FIFO for unprobed entries).
func (c *ReuseCache) Store(res *Result) {
	if res == nil || res.Ensemble == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := c.entriesLocked()
	if res.Epoch != 0 {
		kept := entries[:0]
		for _, e := range entries {
			if e.res.Epoch != 0 && e.res.Epoch < res.Epoch {
				c.pruned.Add(1)
				if c.evictEpochCtr != nil {
					c.evictEpochCtr.Inc()
				}
				continue
			}
			kept = append(kept, e)
		}
		entries = kept
	}
	if len(entries) >= c.cap {
		victim := 0
		if c.approx.Enabled() {
			for i, e := range entries[1:] {
				if e.residual() > entries[victim].residual() {
					victim = i + 1
				}
			}
		}
		entries = append(entries[:victim], entries[victim+1:]...)
		c.evictions.Add(1)
		if c.evictCapCtr != nil {
			c.evictCapCtr.Inc()
		}
	}
	ent := &cacheEntry{res: res, seq: c.seq}
	c.seq++
	if res.TrainDims > 0 && len(res.TrainMins) >= res.TrainDims {
		ent.trainBox = trainBoundingBox(res)
		ent.hasBox = true
	}
	entries = append(entries, ent)
	c.publishLocked(entries)
}

// evict removes one entry (residual outgrew the bound). No-op if the
// entry is already gone.
func (c *ReuseCache) evict(target *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := c.entriesLocked()
	for i, e := range entries {
		if e == target {
			entries = append(entries[:i], entries[i+1:]...)
			c.evictions.Add(1)
			if c.evictResCtr != nil {
				c.evictResCtr.Inc()
			}
			c.publishLocked(entries)
			return
		}
	}
}

// entriesLocked returns a mutable copy of the published entry list.
// Views are immutable, so mutation always works on a fresh slice.
func (c *ReuseCache) entriesLocked() []*cacheEntry {
	v := c.view.Load()
	if v == nil {
		return nil
	}
	return append(make([]*cacheEntry, 0, len(v.entries)+1), v.entries...)
}

// publishLocked rebuilds the R-tree indexes over the new entry list
// and publishes the view. Called with c.mu held.
func (c *ReuseCache) publishLocked(entries []*cacheEntry) {
	v := &cacheView{entries: entries}
	if len(entries) > 0 {
		dims := entries[0].res.Query.Dims()
		for _, e := range entries[1:] {
			if e.res.Query.Dims() != dims {
				dims = 0
				break
			}
		}
		v.dims = dims
		if dims > 0 {
			exact := make([]geometry.Entry, len(entries))
			for i, e := range entries {
				exact[i] = geometry.Entry{Rect: e.res.Query.Bounds, ID: i}
			}
			if t, err := geometry.BuildRTree(exact, 0); err == nil {
				v.exact = t
			}
			if c.approx.Enabled() {
				boxes := make([]geometry.Entry, 0, len(entries))
				for i, e := range entries {
					if e.hasBox && e.res.TrainDims == dims {
						boxes = append(boxes, geometry.Entry{Rect: e.trainBox, ID: i})
					}
				}
				if len(boxes) == len(entries) {
					if t, err := geometry.BuildRTree(boxes, 0); err == nil {
						v.approx = t
					}
				}
				// Entries without training bounds keep the approx
				// path on the linear scan so they stay reachable by
				// neither tier silently dropping them.
			}
		}
	}
	c.view.Store(v)
	if c.entriesGauge != nil {
		c.entriesGauge.Set(float64(len(entries)))
	}
}

// trainBoundingBox folds the flat training rectangles into one box.
func trainBoundingBox(res *Result) geometry.Rect {
	d := res.TrainDims
	min := append([]float64(nil), res.TrainMins[:d]...)
	max := append([]float64(nil), res.TrainMaxs[:d]...)
	for k := d; k+d <= len(res.TrainMins); k += d {
		for j := 0; j < d; j++ {
			if res.TrainMins[k+j] < min[j] {
				min[j] = res.TrainMins[k+j]
			}
			if res.TrainMaxs[k+j] > max[j] {
				max[j] = res.TrainMaxs[k+j]
			}
		}
	}
	return geometry.MustRect(min, max)
}

// probeDue deterministically marks every ProbeEvery-th approx-servable
// query as a ground-truth probe. No RNG involved: seeded replays see
// identical probe schedules.
func (c *ReuseCache) probeDue() bool {
	if c.approx.ProbeEvery <= 0 {
		return false
	}
	return c.probeTick.Add(1)%uint64(c.approx.ProbeEvery) == 0
}

// recordApproxHit books one approximate serve.
func (c *ReuseCache) recordApproxHit(e *cacheEntry) {
	e.served.Add(1)
	c.approxHits.Add(1)
	if c.approxCtr != nil {
		c.approxCtr.Inc()
	}
}

// recordProbe folds one probe outcome into the entry's residual and
// the predicted-vs-realized histogram; entries whose residual alone
// breaches the serve bound are evicted — feedback-driven removal.
func (c *ReuseCache) recordProbe(e *cacheEntry, predicted, realized float64) {
	c.probes.Add(1)
	if c.probesCtr != nil {
		c.probesCtr.Inc()
	}
	if c.errGapHist != nil {
		c.errGapHist.Observe(predicted - realized)
	}
	if e.observeResidual(c.approx.ResidualAlpha, realized) > c.approx.MaxPredictedError {
		c.evict(e)
	}
}

// recordFallback books one approx-tier miss (bound not met).
func (c *ReuseCache) recordFallback() {
	c.fallbacks.Add(1)
	if c.fallbackCtr != nil {
		c.fallbackCtr.Inc()
	}
}

// Stats reports exact-tier cache effectiveness (legacy two-value
// form; see CacheStats for the full picture).
func (c *ReuseCache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// Len returns the current number of cached results.
func (c *ReuseCache) Len() int {
	if v := c.view.Load(); v != nil {
		return len(v.entries)
	}
	return 0
}

// ReuseCacheStats is the full cache scorecard surfaced by /v1/stats.
type ReuseCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Pruned    int64 `json:"pruned"`
	Size      int   `json:"size"`

	ApproxEnabled     bool    `json:"approx_enabled"`
	MaxPredictedError float64 `json:"max_predicted_error,omitempty"`
	ApproxHits        int64   `json:"approx_hits"`
	Probes            int64   `json:"probes"`
	Fallbacks         int64   `json:"fallbacks"`
}

// CacheStats snapshots every counter the cache maintains.
func (c *ReuseCache) CacheStats() ReuseCacheStats {
	return ReuseCacheStats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Evictions:         c.evictions.Load(),
		Pruned:            c.pruned.Load(),
		Size:              c.Len(),
		ApproxEnabled:     c.approx.Enabled(),
		MaxPredictedError: c.approx.MaxPredictedError,
		ApproxHits:        c.approxHits.Load(),
		Probes:            c.probes.Load(),
		Fallbacks:         c.fallbacks.Load(),
	}
}

// serveCached is the adaptive serving pipeline behind a Request with a
// Cache: exact reuse, then (when configured) the approximate
// model-answer tier with its deterministic probe schedule, then
// federated training. Cache hits are served even for an expired
// context since they cost nothing. Lookups are fenced by the
// registry's reuse epoch: after InvalidateSummaries (or a node drift
// signal) the epoch advances and results trained against the old
// advertisement stop matching. With the approximate tier disabled it
// is step-for-step the original exact-reuse path — same lookups, same
// RNG draws, same stores — so seeded replays stay bit-exact.
func (l *Leader) serveCached(ctx context.Context, req Request) (*Result, ServeKind, error) {
	cache, q := req.Cache, req.Query
	epoch := l.reg.ReuseEpoch()
	if hit, ok := cache.LookupEpoch(q, epoch); ok {
		return hit, ServeExact, nil
	}
	if cache.approx.Enabled() {
		if ent, pred, ok := cache.lookupApprox(q, epoch); ok {
			if cache.probeDue() {
				res, err := l.execute(ctx, req)
				if err == nil {
					realized := ensembleDivergence(ent.res.Ensemble, res.Ensemble, q, l.cfg.Spec.InputDim)
					cache.recordProbe(ent, pred, realized)
					cache.Store(res)
					return res, ServeProbe, nil
				}
				// Training failed; the cached answer still clears the
				// bound, so serve it rather than surfacing the error.
			}
			cache.recordApproxHit(ent)
			return ent.res, ServeApprox, nil
		}
		cache.recordFallback()
	}
	res, err := l.execute(ctx, req)
	if err != nil {
		return nil, ServeFresh, err
	}
	cache.Store(res)
	return res, ServeFresh, nil
}

// ensembleDivergence scores how differently two ensembles answer the
// query: the RMS gap between their predictions over a deterministic
// low-discrepancy sample of the query rectangle's feature subspace,
// normalized by the fresh ensemble's RMS magnitude. The feature
// subspace is the first inputDim dimensions of the rectangle — the
// dataset convention puts the target column last (see dataset.XY).
func ensembleDivergence(cached, fresh *Ensemble, q query.Query, inputDim int) float64 {
	if cached == nil || fresh == nil {
		return 1
	}
	d := q.Dims()
	fd := inputDim
	if fd <= 0 || fd > d {
		fd = d
	}
	const samples = 9
	var sumSq, refSq float64
	x := make([]float64, fd)
	for i := 0; i < samples; i++ {
		for j := 0; j < fd; j++ {
			// Kronecker sequence on irrational strides: deterministic,
			// well-spread, no RNG state touched.
			t := math.Mod(0.5+float64(i)*kroneckerAlpha(j), 1)
			x[j] = q.Bounds.Min[j] + t*(q.Bounds.Max[j]-q.Bounds.Min[j])
		}
		a := cached.Predict(x)
		b := fresh.Predict(x)
		sumSq += (a - b) * (a - b)
		refSq += b * b
	}
	div := math.Sqrt(sumSq/samples) / (math.Sqrt(refSq/samples) + 1e-9)
	if div > 1 {
		div = 1
	}
	return div
}

// kroneckerAlpha returns the per-dimension irrational stride for the
// probe sample sequence (square roots of successive primes).
func kroneckerAlpha(j int) float64 {
	primes := [...]float64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
	return math.Sqrt(primes[j%len(primes)])
}
