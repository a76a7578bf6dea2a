package main

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// The deployment every workload runs: the paper's fleet of 10
// synthetic Beijing nodes × 2000 samples, K=5, NN models with 5 local
// epochs. The fleet seed is fixed so every workload seed queries the
// same fleet; qensd derives both its shard and its ingest stream from
// it.
const (
	fleetNodes   = 10
	fleetSamples = 2000
	fleetK       = 5
	fleetSeed    = 1
	localEpochs  = 5
	fleetModel   = "nn"
	regions      = 2

	// Ingest: every qensd streams rows at this rate with no drift,
	// flushing a mini-batch through incremental requantization every
	// ingestBatch rows.
	ingestRate  = 100
	ingestBatch = 50

	// The reuse cache admits a hit at IoU ≥ 0.9 and holds 32 entries
	// (qens-gateway defaults).
	reuseIoU = 0.9
	// repeatPool rectangles fit the cache; their jittered copies stay
	// at IoU ≥ jitterIoU so hits go through the IoU search.
	repeatPool = 24
	jitterIoU  = 0.92
	// jitterVariants jittered copies of each pool rectangle are drawn
	// from at random.
	jitterVariants = 32

	// warmup requests run before timing: the repeat pool once, else
	// this many distinct rectangles.
	warmupQueries = 8
)

// workload is one traffic mix.
type workload struct {
	name    string
	sharded bool    // root gateway over qens-region daemons
	ingest  bool    // every qensd streams rows
	repeat  bool    // jittered draws from a cache-sized pool
	rate    float64 // open-loop arrival rate, queries/s
}

// workloads: each open-loop rate is about half the mix's closed-loop
// throughput with 2 clients on a 2-core host.
var workloads = []workload{
	// Distinct rectangles, so every answer is planned, fanned out and
	// trained.
	{name: "fresh", rate: 45},
	// Jittered draws from a 24-rectangle pool that fits the cache, so
	// answers come from the IoU reuse search.
	{name: "repeat", repeat: true, rate: 1300},
	// The fresh mix while every node streams rows, so epoch bumps,
	// pushes and cache invalidation contend with queries.
	{name: "ingest", ingest: true, rate: 40},
	// The fresh mix through a root gateway over 2 region daemons.
	{name: "sharded", sharded: true, rate: 55},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// iou is the intersection-over-union of two rectangles of equal
// dimension.
func iou(a, b geometry.Rect) float64 {
	vi, va, vb := 1.0, 1.0, 1.0
	for d := range a.Min {
		lo, hi := max(a.Min[d], b.Min[d]), min(a.Max[d], b.Max[d])
		if hi <= lo {
			return 0
		}
		vi *= hi - lo
		va *= a.Max[d] - a.Min[d]
		vb *= b.Max[d] - b.Min[d]
	}
	return ratio(vi, va+vb-vi)
}

// oracle is an in-process replica of the fleet's advertisements. It
// answers, independently of any timing, whether a rectangle is
// supported and which nodes query-driven selection picks for it.
type oracle struct {
	leader   *federation.Leader
	sel      selection.QueryDriven
	spec     ml.Spec
	paramLen int
	heldOut  *dataset.Dataset // later samples of every node's series, never trained on
}

// heldOutPerNode samples per node continue each site's series past the
// fleet's 2000, so they come from the same sites but were never seen.
const heldOutPerNode = 400

func newOracle() (*oracle, error) {
	sets, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: fleetNodes, SamplesPerNode: fleetSamples + heldOutPerNode, Seed: fleetSeed,
	})
	if err != nil {
		return nil, err
	}
	var heldOut *dataset.Dataset
	clients := make([]federation.Client, len(sets))
	for i, d := range sets {
		idx := make([]int, fleetSamples)
		for j := range idx {
			idx[j] = j
		}
		rest := make([]int, 0, heldOutPerNode)
		for j := fleetSamples; j < d.Len(); j++ {
			rest = append(rest, j)
		}
		tail := d.SubsetCopy(rest)
		if heldOut == nil {
			heldOut = tail
		} else if err := heldOut.Merge(tail); err != nil {
			return nil, err
		}
		// Built exactly as qensd builds its node: same shard, same K,
		// same seed, so the k-means summaries match.
		node, err := federation.NewNode(fmt.Sprintf("node-%d", i), d.SubsetCopy(idx), fleetK, rng.New(fleetSeed))
		if err != nil {
			return nil, err
		}
		clients[i] = federation.LocalClient{Node: node}
	}
	spec := ml.PaperNN(1)
	leader, err := federation.NewLeader(federation.Config{
		Spec: spec, ClusterK: fleetK, LocalEpochs: localEpochs, Seed: fleetSeed,
	}, nil, clients)
	if err != nil {
		return nil, err
	}
	m, err := spec.New()
	if err != nil {
		return nil, err
	}
	return &oracle{
		leader: leader, sel: selection.QueryDriven{Epsilon: 0.6, TopL: 3}, spec: spec,
		paramLen: len(m.Params().Values), heldOut: heldOut,
	}, nil
}

// plan returns the sorted participant ids the fleet selects for r, or
// supported=false when no node's clusters support it (the 422 answer).
func (o *oracle) plan(r geometry.Rect) (ids []string, supported bool, err error) {
	q, err := query.New("oracle", r)
	if err != nil {
		return nil, false, err
	}
	pl, err := o.leader.PlanContext(context.Background(), q, o.sel)
	if errors.Is(err, selection.ErrNoCandidates) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer pl.Release()
	for _, p := range pl.Participants {
		ids = append(ids, p.NodeID)
	}
	sort.Strings(ids)
	return ids, true, nil
}

// distinctRects draws n rectangles from query.Workload over space,
// dropping any draw at IoU ≥ reuseIoU with an earlier one, so no
// request can be answered by the reuse cache.
func distinctRects(space geometry.Rect, n int, src *rng.Source) ([]geometry.Rect, error) {
	out := make([]geometry.Rect, 0, n)
	for len(out) < n {
		qs, err := query.Workload(query.WorkloadConfig{Space: space, Count: n - len(out)}, src)
		if err != nil {
			return nil, err
		}
	draw:
		for _, q := range qs {
			for _, r := range out {
				if iou(q.Bounds, r) >= reuseIoU {
					continue draw
				}
			}
			out = append(out, q.Bounds)
		}
	}
	return out, nil
}

// repeatPoolRects draws the cache-sized pool: supported rectangles
// that are pairwise distinct cache entries.
func repeatPoolRects(o *oracle, space geometry.Rect, src *rng.Source) ([]geometry.Rect, error) {
	var pool []geometry.Rect
	for tries := 0; len(pool) < repeatPool; tries++ {
		if tries > 100*repeatPool {
			return nil, errors.New("repeat pool: too few supported rectangles")
		}
		cand, err := distinctRects(space, 1, src)
		if err != nil {
			return nil, err
		}
		r := cand[0]
		if _, ok, err := o.plan(r); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		clash := false
		for _, p := range pool {
			clash = clash || iou(p, r) >= reuseIoU
		}
		if !clash {
			pool = append(pool, r)
		}
	}
	return pool, nil
}

// jitter moves every edge of r by up to frac of its width, retrying
// with smaller moves until the copy keeps IoU ≥ jitterIoU with r and
// is still supported by the fleet.
func jitter(o *oracle, r geometry.Rect, src *rng.Source) (geometry.Rect, error) {
	frac := 0.03
	for tries := 0; tries < 64; tries++ {
		min := make([]float64, r.Dims())
		max := make([]float64, r.Dims())
		for d := range min {
			w := r.Width(d)
			min[d] = r.Min[d] + src.Uniform(-frac, frac)*w
			max[d] = r.Max[d] + src.Uniform(-frac, frac)*w
		}
		j, err := geometry.NewRect(min, max)
		if err == nil && iou(j, r) >= jitterIoU {
			if _, ok, err := o.plan(j); err != nil {
				return geometry.Rect{}, err
			} else if ok {
				return j, nil
			}
		}
		frac *= 0.8
	}
	return r.Clone(), nil
}

// inputs is everything one deployment is sent: the warm-up requests,
// one rectangle list per timed phase, and the parity pass of a traced
// run.
type inputs struct {
	warm   []geometry.Rect
	closed []geometry.Rect
	open   []geometry.Rect
	parity []geometry.Rect
}

// makeInputs derives a workload's rectangles from the workload seed.
// nClosed, nOpen and nParity bound how many each phase may consume.
func makeInputs(w workload, o *oracle, space geometry.Rect, seed uint64, nClosed, nOpen, nParity int) (*inputs, error) {
	src := rng.New(seed)
	in := &inputs{}
	if !w.repeat {
		all, err := distinctRects(space, warmupQueries+nClosed+nOpen+nParity, src)
		if err != nil {
			return nil, err
		}
		in.warm, all = all[:warmupQueries], all[warmupQueries:]
		in.closed, all = all[:nClosed], all[nClosed:]
		in.open, in.parity = all[:nOpen], all[nOpen:]
		return in, nil
	}
	pool, err := repeatPoolRects(o, space, src)
	if err != nil {
		return nil, err
	}
	in.warm = pool
	variants := make([]geometry.Rect, 0, len(pool)*jitterVariants)
	for _, r := range pool {
		for k := 0; k < jitterVariants; k++ {
			j, err := jitter(o, r, src)
			if err != nil {
				return nil, err
			}
			variants = append(variants, j)
		}
	}
	draw := func(n int) []geometry.Rect {
		out := make([]geometry.Rect, n)
		for i := range out {
			out[i] = variants[src.Intn(len(variants))]
		}
		return out
	}
	in.closed, in.open, in.parity = draw(nClosed), draw(nOpen), draw(nParity)
	return in, nil
}
