package federation

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qens/internal/ml"
	"qens/internal/plan"
	"qens/internal/registry"
	"qens/internal/selection"
	"qens/internal/telemetry"
)

// maxInFlightRounds caps the training rounds one fan-out keeps in
// flight. It bounds goroutines, not work: an AllNodes plan over a large
// fleet still trains every participant, this many at a time.
const maxInFlightRounds = 64

// RoundOutcome is one participant's outcome from a training fan-out:
// the raw training response plus the leader-observed wall time and the
// failure (nil on success).
type RoundOutcome struct {
	NodeID  string
	Resp    TrainResponse
	Elapsed time.Duration
	Err     error
	// cancelled marks a round the leader cancelled after a sibling
	// failed, or never started because the fan-out was already
	// cancelled. It is not charged to the node's health.
	cancelled bool
}

// fanOut trains every participant once from the request template tmpl
// (Clusters is filled in per participant) and returns the outcomes in
// participant order, also alongside an error. Rounds run concurrently, at most
// maxInFlightRounds at a time. Nothing about one node's round depends
// on another's (§IV-B), so the schedule never changes the numbers.
//
// When qspan is non-nil each round gets a "train" child span whose IDs
// replace tmpl's trace context, and the node-side spans are folded in
// under it; otherwise tmpl's trace context goes to every node verbatim
// and the node spans stay in the responses.
//
// Without tolerate, the first failure cancels its siblings and the
// returned error wraps that node's error. With tolerate, every round
// runs to completion and failures are only reported in the outcomes.
// Either way, a failure once the caller's ctx has ended returns
// ctx.Err(). Every round the leader did not cancel feeds the round
// metrics, the node's health EWMAs and registry drift signalling.
func (l *Leader) fanOut(ctx context.Context, qspan *telemetry.SpanHandle, round int, tmpl TrainRequest, parts []selection.Participant, tolerate bool) ([]RoundOutcome, error) {
	outs := make([]RoundOutcome, len(parts))
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for i := int(next.Add(1) - 1); i < len(parts); i = int(next.Add(1) - 1) {
			o := &outs[i]
			if err := fctx.Err(); err != nil {
				*o = RoundOutcome{NodeID: parts[i].NodeID, Err: err, cancelled: true}
				continue
			}
			*o = l.trainOne(fctx, qspan, round, tmpl, parts[i])
			if o.Err == nil || tolerate {
				continue
			}
			mu.Lock()
			if firstErr == nil && fctx.Err() == nil {
				firstErr = fmt.Errorf("federation: training on %s: %w", o.NodeID, o.Err)
				cancel()
			} else if ctx.Err() == nil {
				o.cancelled = true
			}
			mu.Unlock()
		}
	}
	workers := min(len(parts), maxInFlightRounds)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	failed := false
	for i := range outs {
		o := &outs[i]
		failed = failed || o.Err != nil
		if o.cancelled {
			continue
		}
		l.metrics.round(o.NodeID, o.Elapsed)
		if o.Err != nil {
			l.health.ObserveRound(o.NodeID, o.Elapsed, o.Err.Error())
			continue
		}
		l.health.ObserveRound(o.NodeID, o.Elapsed, "")
		l.signalEpoch(o.NodeID, o.Resp.SummaryEpoch)
	}
	if firstErr != nil {
		return outs, firstErr
	}
	if err := ctx.Err(); err != nil && failed {
		return outs, err
	}
	return outs, nil
}

// trainOne runs one participant's training round.
func (l *Leader) trainOne(ctx context.Context, qspan *telemetry.SpanHandle, round int, req TrainRequest, p selection.Participant) RoundOutcome {
	start := time.Now()
	o := RoundOutcome{NodeID: p.NodeID}
	c, err := l.client(p.NodeID)
	if err == nil {
		req.Clusters = p.Clusters
		tspan := startTrainSpan(qspan, p.NodeID, round)
		if tspan != nil {
			req.TraceID, req.SpanID = tspan.TraceID(), tspan.SpanID()
		}
		o.Resp, err = c.Train(ctx, req)
		recordNodeSpans(l.activeTracer(), tspan, p.NodeID, o.Resp.Spans)
		tspan.End(err)
	}
	o.Elapsed = time.Since(start)
	o.Err = err
	return o
}

// run is the execution stage for one planned query: it draws the
// initial global model w, trains it on every participant (one round,
// or `rounds` FedAvg rounds) and aggregates. It fills everything in the
// Result except SelectionTime and WallTime, which belong to the
// caller's accounting scope. The Result owns deep copies of the plan's
// participants, so releasing the plan afterwards is safe.
func (l *Leader) run(ctx context.Context, qspan *telemetry.SpanHandle, pl *plan.Plan, agg Aggregation, rounds int) (*Result, error) {
	spec := l.cfg.Spec
	spec.Seed = uint64(l.src.Int63())
	global, err := spec.New()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Query:        pl.Query,
		Epoch:        pl.Epoch,
		Selector:     pl.Selector,
		Aggregation:  agg,
		Participants: pl.CopyParticipants(),
	}
	if snap := pl.Snapshot(); snap != nil {
		res.Stats.SamplesAllNodes = snap.TotalSamples
		captureTrainingBounds(res, snap, res.Participants)
	}
	if rounds > 1 {
		err = l.fedAvg(ctx, qspan, res, global.Params(), rounds)
	} else {
		err = l.singleRound(ctx, qspan, res, global.Params())
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// singleRound is the paper's §IV-B loop: every participant trains the
// initial model once over its supporting clusters, and the local
// models form the Eq. 6/7 ensemble. A failed round aborts the query
// unless Config.TolerateFailures is set, in which case the failure
// stays visible in NodeRounds/Failed and the survivors form the
// ensemble.
func (l *Leader) singleRound(ctx context.Context, qspan *telemetry.SpanHandle, res *Result, initial ml.Params) error {
	outs, err := l.fanOut(ctx, qspan, 0, l.trainRequest(initial), res.Participants, l.cfg.TolerateFailures)
	if err != nil {
		return err
	}
	paramBytes := int64(8 * len(initial.Values))
	ranks := make([]float64, 0, len(outs))
	for i, o := range outs {
		round := NodeRound{NodeID: o.NodeID, Elapsed: o.Elapsed}
		if o.Err != nil {
			round.Err = o.Err.Error()
			res.NodeRounds = append(res.NodeRounds, round)
			res.Failed = append(res.Failed, o.NodeID)
			continue
		}
		res.NodeRounds = append(res.NodeRounds, round)
		res.Stats.addRound(o.Resp, paramBytes, true)
		res.LocalParams = append(res.LocalParams, o.Resp.Params)
		ranks = append(ranks, res.Participants[i].Rank)
	}
	if len(res.LocalParams) == 0 {
		return fmt.Errorf("federation: every selected participant failed for %s", res.Query.ID)
	}
	aggSpan := qspan.Child("aggregation")
	ensemble, err := NewEnsemble(l.cfg.Spec, res.LocalParams, ranks, res.Aggregation)
	aggSpan.End(err)
	if err != nil {
		return err
	}
	res.Ensemble = ensemble
	return nil
}

// trainRequest is the per-query training request every participant
// receives, before its supporting clusters are filled in.
func (l *Leader) trainRequest(params ml.Params) TrainRequest {
	return TrainRequest{Spec: l.cfg.Spec, Params: params, LocalEpochs: l.cfg.LocalEpochs}
}

// addRound accounts one successful training round. first marks the
// participant's first round of the query, the only one whose data
// counts toward SamplesSelectedNodes.
func (s *Stats) addRound(resp TrainResponse, paramBytes int64, first bool) {
	s.TrainTime += resp.TrainTime
	s.SamplesUsed += resp.SamplesUsed
	if first {
		s.SamplesSelectedNodes += resp.TotalSamples
	}
	s.BytesUp += paramBytes
	s.BytesDown += int64(8 * len(resp.Params.Values))
}

// captureTrainingBounds copies the supporting-cluster rectangles of
// every participant out of the plan snapshot into the Result, before
// the plan (and its snapshot reference) is released. A participant
// with a nil cluster directive trains on its whole dataset, so all of
// its advertised cluster rectangles count. The copy is a few hundred
// floats at most and never touches the RNG, so seeded replays are
// unaffected.
func captureTrainingBounds(res *Result, snap *registry.Snapshot, participants []selection.Participant) {
	d := snap.Dims
	if d <= 0 {
		return
	}
	byID := make(map[string]*registry.NodeGeom, len(snap.Nodes))
	for i := range snap.Nodes {
		byID[snap.Nodes[i].NodeID] = &snap.Nodes[i]
	}
	for _, p := range participants {
		g, ok := byID[p.NodeID]
		if !ok {
			continue
		}
		if p.Clusters == nil {
			res.TrainMins = append(res.TrainMins, g.Mins...)
			res.TrainMaxs = append(res.TrainMaxs, g.Maxs...)
			continue
		}
		for _, k := range p.Clusters {
			if k < 0 || (k+1)*d > len(g.Mins) {
				continue
			}
			res.TrainMins = append(res.TrainMins, g.Mins[k*d:(k+1)*d]...)
			res.TrainMaxs = append(res.TrainMaxs, g.Maxs[k*d:(k+1)*d]...)
		}
	}
	if len(res.TrainMins) > 0 {
		res.TrainDims = d
	}
}
