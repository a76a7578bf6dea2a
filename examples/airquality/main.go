// Air-quality scenario: the paper's full experimental setting — 10
// edge nodes holding multi-site air-quality data, the §II
// heterogeneity pre-test, and a head-to-head of all four selection
// mechanisms (GT, Random, query-driven Averaging, query-driven
// Weighted) over a stream of analytics queries.
//
// Run: go run ./examples/airquality
package main

import (
	"context"
	"fmt"
	"log"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

func main() {
	const (
		nodes   = 10 // the paper's N
		k       = 5  // the paper's K
		topL    = 3
		epsilon = 0.6
		queries = 15
	)

	data, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: nodes, SamplesPerNode: 1000, Seed: 11, Heterogeneity: 0.9, FlipFraction: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec: ml.PaperLR(1), ClusterK: k, LocalEpochs: 5, Seed: 2,
	}, federation.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The §II pre-test: is node selection even needed here?
	pre, err := fleet.Leader.PreTest(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-test: participants are %s (loss dispersion %.1fx)\n", pre.Regime, pre.Dispersion)
	if pre.Regime == selection.RegimeHomogeneous {
		fmt.Println("-> random selection would suffice; continuing anyway for the comparison")
	} else {
		fmt.Println("-> a node selection mechanism is required (the Table II situation)")
	}

	space, err := fleet.Space()
	if err != nil {
		log.Fatal(err)
	}
	workload, err := query.Workload(query.WorkloadConfig{Space: space, Count: queries}, rng.New(5))
	if err != nil {
		log.Fatal(err)
	}

	arms := []struct {
		name string
		sel  selection.Selector
		agg  federation.Aggregation
	}{
		{"game-theory", selection.GameTheory{L: topL}, federation.ModelAveraging},
		{"random", selection.Random{L: topL}, federation.ModelAveraging},
		{"qd-averaging", selection.QueryDriven{Epsilon: epsilon, TopL: topL}, federation.ModelAveraging},
		{"qd-weighted", selection.QueryDriven{Epsilon: epsilon, TopL: topL}, federation.WeightedAveraging},
	}
	fmt.Printf("\naverage loss over %d queries (Fig. 7 protocol):\n", queries)
	for _, arm := range arms {
		total, count := 0.0, 0
		samplesUsed, samplesAll := 0, 0
		for _, q := range workload {
			res, _, err := fleet.Leader.Execute(context.Background(), federation.Request{Query: q, Selector: arm.sel, Aggregation: arm.agg})
			if err != nil {
				continue // no node supports this query under this policy
			}
			if mse, _, ok := federation.EvaluateResult(res, fleet.Test); ok {
				total += mse
				count++
				samplesUsed += res.Stats.SamplesUsed
				samplesAll += res.Stats.SamplesAllNodes
			}
		}
		if count == 0 {
			fmt.Printf("  %-14s (no evaluable queries)\n", arm.name)
			continue
		}
		fmt.Printf("  %-14s loss=%-10.2f data-used=%4.1f%%  (%d/%d queries)\n",
			arm.name, total/float64(count),
			100*float64(samplesUsed)/float64(samplesAll), count, queries)
	}
	fmt.Println("\nexpected shape (paper Fig. 7): qd-weighted <= qd-averaging < game-theory < random")
}
