package federation

import (
	"context"
	"fmt"
	"math"

	"qens/internal/ml"
	"qens/internal/telemetry"
)

// Multi-round federated training — the classic FedAvg communication
// loop ([6], [15], [16]) layered on top of the paper's per-query
// selection. The paper itself performs a single round per query
// (select, train locally, aggregate predictions); a Request with
// Rounds > 1 is the extension where the leader re-distributes the
// parameter average between rounds, letting local models converge
// toward a single global model instead of an ensemble.

// fedAvg runs `rounds` communication rounds over the query's
// participants (selection is query-scoped, not round-scoped): each
// round every participant trains from the current global parameters
// over its supporting clusters, and the leader replaces them with the
// FedAvg of the local models — weighted by rank under
// WeightedAveraging, uniform under ModelAveraging. Any failed round
// aborts the query, whatever Config.TolerateFailures says. The
// Result's ensemble holds the single converged global model.
func (l *Leader) fedAvg(ctx context.Context, qspan *telemetry.SpanHandle, res *Result, current ml.Params, rounds int) error {
	paramBytes := int64(8 * len(current.Values))
	weights := make([]float64, len(res.Participants))
	for i, p := range res.Participants {
		weights[i] = 1
		if res.Aggregation == WeightedAveraging {
			weights[i] = p.Rank
		}
	}
	for r := 0; r < rounds; r++ {
		outs, err := l.fanOut(ctx, qspan, r, l.trainRequest(current), res.Participants, false)
		if err != nil {
			return fmt.Errorf("federation: round %d: %w", r, err)
		}
		locals := make([]ml.Params, len(outs))
		for i, o := range outs {
			res.NodeRounds = append(res.NodeRounds, NodeRound{NodeID: o.NodeID, Round: r, Elapsed: o.Elapsed})
			res.Stats.addRound(o.Resp, paramBytes, r == 0)
			locals[i] = o.Resp.Params
		}
		aggSpan := qspan.Child("aggregation")
		next, err := FedAvgParams(locals, weights)
		aggSpan.End(err)
		if err != nil {
			return fmt.Errorf("federation: round %d aggregation: %w", r, err)
		}
		res.RoundDeltas = append(res.RoundDeltas, paramDelta(current, next))
		current = next
		res.LocalParams = locals
	}
	ensemble, err := NewEnsemble(l.cfg.Spec, []ml.Params{current}, []float64{1}, ModelAveraging)
	if err != nil {
		return err
	}
	res.Ensemble = ensemble
	res.GlobalParams = current
	return nil
}

// paramDelta returns the L2 distance between two parameter vectors
// (architecture-compatible by construction).
func paramDelta(a, b ml.Params) float64 {
	s := 0.0
	for i := range a.Values {
		d := a.Values[i] - b.Values[i]
		s += d * d
	}
	return math.Sqrt(s)
}
