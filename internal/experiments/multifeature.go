package experiments

import (
	"context"
	"fmt"
	"strings"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// Multi-feature extension: the paper's experiments project each node
// onto "one important feature and labels" (§V-A) to keep model
// behaviour easy to track, but the mechanism itself is defined for
// arbitrary d (Eqs. 2-4 average over all dimensions). This experiment
// runs the full pipeline over a wider feature set of the synthetic
// air-quality schema, validating that ranking, selectivity and the
// loss ordering survive in higher-dimensional joint spaces.

// DefaultMultiFeatureColumns is the default projection: three weather
// drivers plus the PM2.5 target — a 4-dimensional joint space.
var DefaultMultiFeatureColumns = []string{"TEMP", "DEWP", "WSPM", "PM2.5"}

// MultiFeatureResult compares mechanisms on the wider space.
type MultiFeatureResult struct {
	Columns []string
	Dims    int
	// Losses maps mechanism -> mean per-query test MSE.
	Losses map[string]float64
	// DataFraction is the query-driven mean fraction of federation
	// data used.
	DataFraction float64
	// Executed counts evaluable queries (query-driven arm).
	Executed int
}

// String renders the comparison.
func (r MultiFeatureResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-feature pipeline over %v (d=%d joint space, %d queries)\n",
		r.Columns, r.Dims, r.Executed)
	for _, m := range []string{"random", "weighted"} {
		fmt.Fprintf(&b, "%-10s loss=%.2f\n", m, r.Losses[m])
	}
	fmt.Fprintf(&b, "query-driven data use: %.1f%%\n", 100*r.DataFraction)
	return b.String()
}

// MultiFeature runs the comparison over the given columns (the last
// entry must include the PM2.5 target; nil uses the default set).
func MultiFeature(opts Options, columns []string) (*MultiFeatureResult, error) {
	opts = opts.WithDefaults()
	if len(columns) == 0 {
		columns = DefaultMultiFeatureColumns
	}
	hasTarget := false
	for _, c := range columns {
		if c == dataset.AirQualityTarget {
			hasTarget = true
		}
	}
	if !hasTarget {
		return nil, fmt.Errorf("experiments: multi-feature columns %v lack the %s target", columns, dataset.AirQualityTarget)
	}

	full, err := dataset.SyntheticAirQuality(opts.datasetConfig())
	if err != nil {
		return nil, err
	}
	data := make([]*dataset.Dataset, len(full))
	for i, d := range full {
		p, err := d.Project(columns, dataset.AirQualityTarget)
		if err != nil {
			return nil, err
		}
		data[i] = p
	}
	inputDim := len(columns) - 1
	spec := ml.PaperLR(inputDim)
	if opts.Model == ml.KindNN {
		spec = ml.PaperNN(inputDim)
	}
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec:        spec,
		ClusterK:    opts.ClusterK,
		LocalEpochs: opts.LocalEpochs,
		Seed:        opts.Seed + 1,
	}, federation.FleetOptions{})
	if err != nil {
		return nil, err
	}
	space, err := fleet.Space()
	if err != nil {
		return nil, err
	}
	queries, err := query.Workload(query.WorkloadConfig{
		Space: space,
		Count: opts.Queries,
		// Wider per-dimension queries: in high d a narrow rectangle
		// in every dimension covers almost no data.
		MinWidthFraction: 0.3,
		MaxWidthFraction: 0.7,
	}, rng.New(opts.Seed+2))
	if err != nil {
		return nil, err
	}

	res := &MultiFeatureResult{
		Columns: columns,
		Dims:    len(columns),
		Losses:  map[string]float64{},
	}
	// ε for d dims: a cluster matching all but one dimension scores
	// (d-1)/d under Eq. 2; demanding slightly more than that keeps
	// the threshold binding in any dimensionality.
	eps := (float64(len(columns)) - 0.5) / float64(len(columns))

	sel := selection.QueryDriven{Epsilon: eps, TopL: opts.TopL}
	sumLoss, sumFrac, executed := 0.0, 0.0, 0
	for _, q := range queries {
		r, _, err := fleet.Leader.Execute(context.Background(), federation.Request{
			Query:       q,
			Selector:    sel,
			Aggregation: federation.WeightedAveraging,
		})
		if err != nil {
			continue
		}
		mse, _, ok := federation.EvaluateResult(r, fleet.Test)
		if !ok {
			continue
		}
		sumLoss += mse
		sumFrac += r.Stats.DataFraction()
		executed++
	}
	if executed == 0 {
		return nil, fmt.Errorf("experiments: no evaluable multi-feature query (ε=%.2f)", eps)
	}
	res.Losses["weighted"] = sumLoss / float64(executed)
	res.DataFraction = sumFrac / float64(executed)
	res.Executed = executed

	rndLoss, rndN := 0.0, 0
	ctxSel := selection.Random{L: opts.TopL}
	for _, q := range queries {
		r, _, err := fleet.Leader.Execute(context.Background(), federation.Request{
			Query:       q,
			Selector:    ctxSel,
			Aggregation: federation.ModelAveraging,
		})
		if err != nil {
			continue
		}
		mse, _, ok := federation.EvaluateResult(r, fleet.Test)
		if !ok {
			continue
		}
		rndLoss += mse
		rndN++
	}
	if rndN == 0 {
		return nil, fmt.Errorf("experiments: random arm executed no multi-feature query")
	}
	res.Losses["random"] = rndLoss / float64(rndN)
	return res, nil
}
