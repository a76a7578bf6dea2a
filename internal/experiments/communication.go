package experiments

import (
	"context"
	"fmt"
	"strings"

	"qens/internal/federation"
	"qens/internal/query"
	"qens/internal/selection"
)

// Communication-cost experiment, quantifying §III-C's claim that the
// mechanism needs only O(1) communication per node: nodes ship K
// cluster rectangles once, and per query only model parameters move.
// Three alternatives are accounted:
//
//   - query-driven: one-off summaries + per-query parameter exchange
//     with the ℓ selected nodes;
//   - game-theory [7]: additionally needs a pre-test round per query
//     (warm-up parameters to every node, a loss back from each);
//   - centralized: the non-federated strawman that ships every node's
//     in-query raw samples to the leader.
type CommPoint struct {
	Mechanism string
	// SetupBytes is one-off communication before any query.
	SetupBytes int64
	// PerQueryBytes is the mean per-query communication.
	PerQueryBytes int64
}

// CommResult is the accounting table.
type CommResult struct {
	Points []CommPoint
	// Queries is the number of queries averaged over.
	Queries int
}

// String renders the table.
func (r CommResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Communication cost (mean over %d queries)\n", r.Queries)
	fmt.Fprintf(&b, "%-14s %14s %16s\n", "mechanism", "setup bytes", "per-query bytes")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s %14d %16d\n", p.Mechanism, p.SetupBytes, p.PerQueryBytes)
	}
	return b.String()
}

// CommunicationCost runs the accounting over the workload.
func CommunicationCost(opts Options) (*CommResult, error) {
	opts = opts.WithDefaults()
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	summaries, err := env.Fleet.Leader.Summaries()
	if err != nil {
		return nil, err
	}
	// One-off summary exchange: bounds (2d) + centroid (d) + size,
	// 8 bytes a float, per cluster per node.
	var summaryBytes int64
	for _, s := range summaries {
		for _, c := range s.Clusters {
			summaryBytes += int64(8 * (3*c.Bounds.Dims() + 1))
		}
	}

	sel := selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}
	var qdBytes, gtBytes, rawBytes int64
	executed := 0
	var paramBytes int64
	for _, q := range env.Queries {
		res, _, err := env.Fleet.Leader.Execute(context.Background(), federation.Request{
			Query:       q,
			Selector:    sel,
			Aggregation: federation.ModelAveraging,
		})
		if err != nil {
			continue
		}
		executed++
		qdBytes += res.Stats.BytesUp + res.Stats.BytesDown
		if paramBytes == 0 && len(res.LocalParams) > 0 {
			paramBytes = int64(8 * len(res.LocalParams[0].Values))
		}
		// GT: pre-test ships the warm-up model to every node and a
		// float64 loss back, then trains ℓ nodes on whole data.
		gtBytes += int64(len(summaries))*(paramBytes+8) + 2*int64(opts.TopL)*paramBytes
		// Centralized strawman: every in-query raw sample crosses
		// the network (dims columns x 8 bytes).
		est, err := query.EstimateSelectivity(q, summaries)
		if err != nil {
			return nil, err
		}
		rawBytes += int64(est.Samples * float64(8*q.Dims()))
	}
	if executed == 0 {
		return nil, fmt.Errorf("experiments: no query executed for communication accounting")
	}
	n := int64(executed)
	return &CommResult{
		Queries: executed,
		Points: []CommPoint{
			{Mechanism: "query-driven", SetupBytes: summaryBytes, PerQueryBytes: qdBytes / n},
			{Mechanism: "game-theory", SetupBytes: 0, PerQueryBytes: gtBytes / n},
			{Mechanism: "centralized", SetupBytes: 0, PerQueryBytes: rawBytes / n},
		},
	}, nil
}
