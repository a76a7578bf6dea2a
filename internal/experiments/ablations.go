package experiments

import (
	"context"
	"fmt"
	"strings"

	"qens/internal/federation"
	"qens/internal/selection"
)

// Ablations for the design choices DESIGN.md calls out: the number of
// clusters K per node (the §IV-A Remark argues K=1 degrades to
// whole-node training), the ε support threshold, the top-ℓ width, and
// ψ-threshold selection vs top-ℓ.

// AblationPoint is one setting's outcome.
type AblationPoint struct {
	// Setting is the swept parameter value, formatted.
	Setting string
	// Loss is the mean per-query test MSE.
	Loss float64
	// DataFraction is the mean fraction of federation data used.
	DataFraction float64
	// Executed counts evaluable queries.
	Executed int
}

// AblationResult is a sweep over one parameter.
type AblationResult struct {
	Parameter string
	Points    []AblationPoint
}

// String renders the sweep.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation over %s\n", r.Parameter)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12s loss=%-10.2f data=%5.1f%%  (%d queries)\n",
			p.Setting, p.Loss, 100*p.DataFraction, p.Executed)
	}
	return b.String()
}

// sweepQueryDriven executes the whole workload under one query-driven
// configuration and reports mean loss + data fraction.
func sweepQueryDriven(env *Environment, sel selection.QueryDriven) (AblationPoint, error) {
	total, frac := 0.0, 0.0
	executed := 0
	for _, q := range env.Queries {
		res, _, err := env.Fleet.Leader.Execute(context.Background(), federation.Request{
			Query:       q,
			Selector:    sel,
			Aggregation: federation.WeightedAveraging,
		})
		if err != nil {
			continue
		}
		mse, _, ok := federation.EvaluateResult(res, env.Fleet.Test)
		if !ok {
			continue
		}
		total += mse
		frac += res.Stats.DataFraction()
		executed++
	}
	if executed == 0 {
		return AblationPoint{}, fmt.Errorf("experiments: no evaluable query in sweep")
	}
	return AblationPoint{
		Loss:         total / float64(executed),
		DataFraction: frac / float64(executed),
		Executed:     executed,
	}, nil
}

// AblationK sweeps the per-node cluster count. K=1 is the degenerate
// case the paper's Remark warns about: the single cluster's rectangle
// covers the whole node, so data selectivity vanishes.
func AblationK(opts Options, ks []int) (*AblationResult, error) {
	opts = opts.WithDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 5, 10}
	}
	out := &AblationResult{Parameter: "K (clusters per node)"}
	for _, k := range ks {
		o := opts
		o.ClusterK = k
		env, err := NewEnvironment(o)
		if err != nil {
			return nil, err
		}
		p, err := sweepQueryDriven(env, selection.QueryDriven{Epsilon: o.Epsilon, TopL: o.TopL})
		if err != nil {
			return nil, fmt.Errorf("experiments: K=%d: %w", k, err)
		}
		p.Setting = fmt.Sprintf("K=%d", k)
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// AblationEpsilon sweeps the ε support threshold over one shared
// environment.
func AblationEpsilon(opts Options, epsilons []float64) (*AblationResult, error) {
	opts = opts.WithDefaults()
	if len(epsilons) == 0 {
		epsilons = []float64{0.1, 0.2, 0.3, 0.5, 0.7}
	}
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Parameter: "epsilon (support threshold)"}
	for _, eps := range epsilons {
		p, err := sweepQueryDriven(env, selection.QueryDriven{Epsilon: eps, TopL: opts.TopL})
		if err != nil {
			return nil, fmt.Errorf("experiments: ε=%v: %w", eps, err)
		}
		p.Setting = fmt.Sprintf("ε=%.2f", eps)
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// AblationTopL sweeps the ℓ participant budget over one shared
// environment.
func AblationTopL(opts Options, ls []int) (*AblationResult, error) {
	opts = opts.WithDefaults()
	if len(ls) == 0 {
		ls = []int{1, 2, 3, 5, 10}
	}
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Parameter: "ℓ (top-ℓ participants)"}
	for _, l := range ls {
		p, err := sweepQueryDriven(env, selection.QueryDriven{Epsilon: opts.Epsilon, TopL: l})
		if err != nil {
			return nil, fmt.Errorf("experiments: ℓ=%d: %w", l, err)
		}
		p.Setting = fmt.Sprintf("ℓ=%d", l)
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// AblationPsi sweeps the ψ rank threshold (Eq. 5) as the alternative
// to top-ℓ selection.
func AblationPsi(opts Options, psis []float64) (*AblationResult, error) {
	opts = opts.WithDefaults()
	if len(psis) == 0 {
		psis = []float64{0.05, 0.1, 0.25, 0.5}
	}
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Parameter: "ψ (rank threshold, Eq. 5)"}
	for _, psi := range psis {
		p, err := sweepQueryDriven(env, selection.QueryDriven{Epsilon: opts.Epsilon, Psi: psi})
		if err != nil {
			return nil, fmt.Errorf("experiments: ψ=%v: %w", psi, err)
		}
		p.Setting = fmt.Sprintf("ψ=%.2f", psi)
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// AblationAggregation compares the paper's prediction-space
// aggregations against parameter-space FedAvg on one environment.
func AblationAggregation(opts Options) (*AblationResult, error) {
	opts = opts.WithDefaults()
	env, err := NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	sel := selection.QueryDriven{Epsilon: opts.Epsilon, TopL: opts.TopL}
	out := &AblationResult{Parameter: "aggregation rule"}

	for _, agg := range []federation.Aggregation{federation.ModelAveraging, federation.WeightedAveraging} {
		loss, n, err := env.meanLoss(sel, agg)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, AblationPoint{Setting: agg.String(), Loss: loss, Executed: n})
	}

	// FedAvg arm: average parameters instead of predictions.
	spec := env.Fleet.Leader.Config().Spec
	total, executed := 0.0, 0
	for _, q := range env.Queries {
		res, _, err := env.Fleet.Leader.Execute(context.Background(), federation.Request{
			Query:       q,
			Selector:    sel,
			Aggregation: federation.ModelAveraging,
		})
		if err != nil {
			continue
		}
		weights := make([]float64, len(res.Participants))
		for i, p := range res.Participants {
			weights[i] = p.Rank
		}
		avg, err := federation.FedAvgParams(res.LocalParams, weights)
		if err != nil {
			continue
		}
		model, err := spec.New()
		if err != nil {
			return nil, err
		}
		if err := model.SetParams(avg); err != nil {
			continue
		}
		sub := env.Fleet.Test.FilterInRect(q.Bounds)
		if sub.Len() == 0 {
			continue
		}
		x, y := sub.XY()
		pred := model.PredictBatch(x)
		mse := 0.0
		for i := range y {
			d := y[i] - pred[i]
			mse += d * d
		}
		total += mse / float64(len(y))
		executed++
	}
	if executed > 0 {
		out.Points = append(out.Points, AblationPoint{
			Setting: "fedavg", Loss: total / float64(executed), Executed: executed,
		})
	}
	return out, nil
}
