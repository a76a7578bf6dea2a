package federation

import (
	"context"
	"fmt"
	"time"

	"qens/internal/dataset"
	"qens/internal/query"
	"qens/internal/selection"
)

// Workload execution: the convenience driver for running a whole query
// stream through a leader and collecting per-query and aggregate
// outcomes — what every experiment, example and benchmark otherwise
// re-implements by hand.

// WorkloadOutcome is one query's result within a workload run.
type WorkloadOutcome struct {
	Query query.Query
	// Result is nil when the query failed (e.g. no supporting node).
	Result *Result
	// Err records why the query failed.
	Err error
	// TestMSE is the loss over test data inside the query rectangle;
	// valid only when Scored is true.
	TestMSE float64
	Scored  bool
}

// WorkloadReport aggregates a run.
type WorkloadReport struct {
	Outcomes []WorkloadOutcome
	// Executed counts queries that produced a result.
	Executed int
	// Scored counts queries with test data to evaluate on.
	Scored int
	// MeanMSE is the mean TestMSE over scored queries.
	MeanMSE float64
	// MeanDataFraction is the mean fraction of federation data used.
	MeanDataFraction float64
	// TotalTrainTime sums node-reported training time.
	TotalTrainTime time.Duration
}

// RunWorkload executes every query with the given selector and
// aggregation, scoring against test (which may be nil to skip
// scoring). Individual query failures are recorded, not fatal; the
// run only errors when no query at all executes.
func RunWorkload(l *Leader, queries []query.Query, sel selection.Selector, agg Aggregation, test *dataset.Dataset) (*WorkloadReport, error) {
	if l == nil {
		return nil, fmt.Errorf("federation: nil leader")
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("federation: empty workload")
	}
	report := &WorkloadReport{Outcomes: make([]WorkloadOutcome, 0, len(queries))}
	sumMSE, sumFrac := 0.0, 0.0
	for _, q := range queries {
		outcome := WorkloadOutcome{Query: q}
		res, _, err := l.Execute(context.Background(), Request{Query: q, Selector: sel, Aggregation: agg})
		if err != nil {
			outcome.Err = err
			report.Outcomes = append(report.Outcomes, outcome)
			continue
		}
		outcome.Result = res
		report.Executed++
		report.TotalTrainTime += res.Stats.TrainTime
		sumFrac += res.Stats.DataFraction()
		if test != nil {
			if mse, _, ok := EvaluateResult(res, test); ok {
				outcome.TestMSE = mse
				outcome.Scored = true
				report.Scored++
				sumMSE += mse
			}
		}
		report.Outcomes = append(report.Outcomes, outcome)
	}
	if report.Executed == 0 {
		return nil, fmt.Errorf("federation: no query in the workload executed")
	}
	report.MeanDataFraction = sumFrac / float64(report.Executed)
	if report.Scored > 0 {
		report.MeanMSE = sumMSE / float64(report.Scored)
	}
	return report, nil
}

// FailedQueries returns the ids of queries that produced no result.
func (r *WorkloadReport) FailedQueries() []string {
	var out []string
	for _, o := range r.Outcomes {
		if o.Err != nil {
			out = append(out, o.Query.ID)
		}
	}
	return out
}
