package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"qens/internal/federation"
	"qens/internal/selection"
)

// Figure7Result is the paper's headline comparison: average loss of
// the four mechanisms over the query workload.
type Figure7Result struct {
	Model string
	// Losses maps mechanism name -> mean per-query test MSE.
	Losses map[string]float64
	// Executed maps mechanism name -> evaluable query count.
	Executed map[string]int
}

// Figure7Mechanisms is the fixed output order.
var Figure7Mechanisms = []string{"gt", "random", "averaging", "weighted"}

// String renders the comparison.
func (r Figure7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — average loss per mechanism (%s)\n", strings.ToUpper(r.Model))
	for _, m := range Figure7Mechanisms {
		fmt.Fprintf(&b, "%-10s %.2f  (%d queries)\n", m, r.Losses[m], r.Executed[m])
	}
	return b.String()
}

// Figure7 reproduces Fig. 7: GT [7] and Random [6] baselines against
// the query-driven mechanism under Model Averaging (Eq. 6) and
// Weighted Averaging (Eq. 7). Expected shape: weighted <= averaging
// < gt < random on heterogeneous data.
func Figure7(opts Options) (*Figure7Result, error) {
	opts = opts.WithDefaults()
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	res := &Figure7Result{
		Model:    opts.Model,
		Losses:   map[string]float64{},
		Executed: map[string]int{},
	}
	arms := []struct {
		name string
		sel  selection.Selector
		agg  federation.Aggregation
	}{
		{"gt", selection.GameTheory{L: opts.TopL}, federation.ModelAveraging},
		{"random", selection.Random{L: opts.TopL}, federation.ModelAveraging},
		{"averaging", selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}, federation.ModelAveraging},
		{"weighted", selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}, federation.WeightedAveraging},
	}
	for _, arm := range arms {
		loss, n, err := env.meanLoss(arm.sel, arm.agg)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 7 arm %s: %w", arm.name, err)
		}
		res.Losses[arm.name] = loss
		res.Executed[arm.name] = n
	}
	return res, nil
}

// Figure8Point is one query's timing pair.
type Figure8Point struct {
	QueryID string
	// QueryDriven is the summed node training time when training
	// only on supporting clusters.
	QueryDriven time.Duration
	// WholeData is the same nodes trained on their full datasets
	// ("without taking into account the query").
	WholeData time.Duration
	// SamplesQueryDriven / SamplesWhole are the corresponding
	// training-set sizes — the deterministic quantity behind the
	// timing gap (timing itself is wall-clock and scale-dependent).
	SamplesQueryDriven int
	SamplesWhole       int
}

// Figure8Result is the paper's Fig. 8 series (20 sequential queries).
type Figure8Result struct {
	Points []Figure8Point
}

// String renders the two series.
func (r Figure8Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8 — training time per query (query-driven vs whole data)\n")
	var sumQD, sumWD time.Duration
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8s query-driven=%-12s whole-data=%s\n", p.QueryID, p.QueryDriven, p.WholeData)
		sumQD += p.QueryDriven
		sumWD += p.WholeData
	}
	if len(r.Points) > 0 {
		fmt.Fprintf(&b, "mean     query-driven=%-12s whole-data=%s\n",
			sumQD/time.Duration(len(r.Points)), sumWD/time.Duration(len(r.Points)))
	}
	return b.String()
}

// Speedup returns mean(whole)/mean(query-driven) in wall-clock terms.
func (r Figure8Result) Speedup() float64 {
	var qd, wd time.Duration
	for _, p := range r.Points {
		qd += p.QueryDriven
		wd += p.WholeData
	}
	if qd == 0 {
		return 0
	}
	return float64(wd) / float64(qd)
}

// DataReduction returns sum(whole samples)/sum(query-driven samples),
// the deterministic driver of the Fig. 8 timing gap.
func (r Figure8Result) DataReduction() float64 {
	qd, wd := 0, 0
	for _, p := range r.Points {
		qd += p.SamplesQueryDriven
		wd += p.SamplesWhole
	}
	if qd == 0 {
		return 0
	}
	return float64(wd) / float64(qd)
}

// Figure8 reproduces Fig. 8: for a stream of sequential queries, the
// per-query model-building time with the query-driven mechanism
// (selected nodes train only their supporting clusters) against
// training the same selected nodes on their whole datasets.
func Figure8(opts Options) (*Figure8Result, error) {
	opts = opts.WithDefaults()
	if opts.Queries > 20 {
		opts.Queries = 20 // the paper plots 20 sequential queries
	}
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	sel := selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}
	out := &Figure8Result{}
	for _, q := range env.Queries {
		res, _, err := env.Fleet.Leader.Execute(context.Background(), federation.Request{
			Query:       q,
			Selector:    sel,
			Aggregation: federation.ModelAveraging,
		})
		if err != nil {
			continue
		}
		point := Figure8Point{
			QueryID:            q.ID,
			QueryDriven:        res.Stats.TrainTime,
			SamplesQueryDriven: res.Stats.SamplesUsed,
		}
		// Re-train the same participants without data selectivity.
		var whole time.Duration
		wholeSamples := 0
		ok := true
		for _, p := range res.Participants {
			node := findNode(env.Fleet, p.NodeID)
			if node == nil {
				ok = false
				break
			}
			resp, err := node.Train(federation.TrainRequest{
				Spec:        env.Fleet.Leader.Config().Spec,
				LocalEpochs: opts.LocalEpochs,
			})
			if err != nil {
				ok = false
				break
			}
			whole += resp.TrainTime
			wholeSamples += resp.SamplesUsed
		}
		if !ok {
			continue
		}
		point.WholeData = whole
		point.SamplesWhole = wholeSamples
		out.Points = append(out.Points, point)
	}
	if len(out.Points) == 0 {
		return nil, fmt.Errorf("experiments: figure 8 produced no points")
	}
	return out, nil
}

// Figure9Point is one query's data-usage pair.
type Figure9Point struct {
	QueryID string
	// QueryDrivenFraction is samples trained on / total samples
	// across all nodes, with query-driven selectivity.
	QueryDrivenFraction float64
	// WholeDataFraction is the fraction used when the selected
	// participants train on their entire datasets.
	WholeDataFraction float64
}

// Figure9Result is the Fig. 9 series.
type Figure9Result struct {
	Points []Figure9Point
}

// String renders the two bar series.
func (r Figure9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9 — % of all-node data needed per query\n")
	var sq, sw float64
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8s query-driven=%5.1f%%  whole-data=%5.1f%%\n",
			p.QueryID, 100*p.QueryDrivenFraction, 100*p.WholeDataFraction)
		sq += p.QueryDrivenFraction
		sw += p.WholeDataFraction
	}
	if len(r.Points) > 0 {
		n := float64(len(r.Points))
		fmt.Fprintf(&b, "mean     query-driven=%5.1f%%  whole-data=%5.1f%%\n", 100*sq/n, 100*sw/n)
	}
	return b.String()
}

// MeanFractions returns the average of both series.
func (r Figure9Result) MeanFractions() (queryDriven, whole float64) {
	if len(r.Points) == 0 {
		return 0, 0
	}
	for _, p := range r.Points {
		queryDriven += p.QueryDrivenFraction
		whole += p.WholeDataFraction
	}
	n := float64(len(r.Points))
	return queryDriven / n, whole / n
}

// Figure9 reproduces Fig. 9: the percentage of the federation's data
// each query actually needs under the query-driven mechanism vs
// training the selected participants on everything.
func Figure9(opts Options) (*Figure9Result, error) {
	opts = opts.WithDefaults()
	if opts.Queries > 20 {
		opts.Queries = 20
	}
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	sel := selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}
	out := &Figure9Result{}
	for _, q := range env.Queries {
		res, _, err := env.Fleet.Leader.Execute(context.Background(), federation.Request{
			Query:       q,
			Selector:    sel,
			Aggregation: federation.ModelAveraging,
		})
		if err != nil {
			continue
		}
		total := float64(res.Stats.SamplesAllNodes)
		if total == 0 {
			continue
		}
		out.Points = append(out.Points, Figure9Point{
			QueryID:             q.ID,
			QueryDrivenFraction: float64(res.Stats.SamplesUsed) / total,
			WholeDataFraction:   float64(res.Stats.SamplesSelectedNodes) / total,
		})
	}
	if len(out.Points) == 0 {
		return nil, fmt.Errorf("experiments: figure 9 produced no points")
	}
	return out, nil
}

// findNode resolves an in-process node by id.
func findNode(fleet *federation.Fleet, id string) *federation.Node {
	for _, n := range fleet.Nodes {
		if n.ID() == id {
			return n
		}
	}
	return nil
}
