package federation

import (
	"context"

	"qens/internal/ml"
	"qens/internal/selection"
)

// TrainRound drives one training round for an explicit participant
// list with a caller-supplied spec (seed already drawn) and initial
// global parameters. This is the region-tier entry point: the root
// coordinator plans and aggregates globally, and each regional leader
// only fans the round out to its own shard — so unlike Execute, no
// selection happens here, no ensemble is built, and failures are
// reported per participant instead of aborting the round.
//
// It trains through the same fan-out as Execute, with every round run
// to completion, so per-round health EWMAs, the
// qens_leader_train_round_ms metrics and registry drift signalling (a
// node echoing a newer advertisement epoch invalidates this leader's
// snapshot) all fire exactly as they do there. traceID/spanID, when
// non-empty, propagate to the nodes so their phase spans come back in
// each outcome for cross-process re-parenting at the root.
func (l *Leader) TrainRound(ctx context.Context, spec ml.Spec, initial ml.Params, participants []selection.Participant, localEpochs int, traceID, spanID string) []RoundOutcome {
	if localEpochs < 1 {
		localEpochs = l.cfg.LocalEpochs
	}
	req := TrainRequest{Spec: spec, Params: initial, LocalEpochs: localEpochs, TraceID: traceID, SpanID: spanID}
	// With tolerate the only error is the caller's context ending, and
	// every failed outcome already carries its own.
	outs, _ := l.fanOut(ctx, nil, 0, req, participants, true)
	return outs
}
