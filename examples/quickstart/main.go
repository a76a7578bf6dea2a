// Quickstart: the smallest end-to-end use of the library.
//
// It builds a simulated fleet of 6 edge nodes over the synthetic
// air-quality corpus, issues one analytics query (a rectangle over the
// TEMP x PM2.5 space), lets the query-driven mechanism rank and select
// participants, trains the federated model over their supporting
// clusters only, and prints the ranking and the aggregated
// predictions.
//
// Run: go run ./examples/quickstart
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
	// 1. Per-node datasets: 6 heterogeneous sites, TEMP -> PM2.5.
	data, err := dataset.PaperNodeDatasets(dataset.Config{
		Nodes: 6, SamplesPerNode: 800, Seed: 42, Heterogeneity: 0.8, FlipFraction: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. A fleet: every node quantizes its data into K=5 clusters and
	//    advertises only the cluster bounding boxes to the leader.
	fleet, err := federation.NewSimulatedFleet(data, federation.Config{
		Spec:        ml.PaperLR(1), // Table III linear regression
		ClusterK:    5,
		LocalEpochs: 5,
		Seed:        7,
	}, federation.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. One analytics query over the global data space.
	space, err := fleet.Space()
	if err != nil {
		log.Fatal(err)
	}
	q, err := query.Uniform(space, rng.New(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %s over %v\n\n", q.ID, q.Bounds)

	// 4. Inspect the ranking the leader computes (Eqs. 2-4).
	summaries, err := fleet.Leader.Summaries()
	if err != nil {
		log.Fatal(err)
	}
	ranks, err := selection.RankNodes(q, summaries, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	selection.SortByRank(ranks)
	fmt.Println("node ranking (Eq. 4):")
	for _, r := range ranks {
		fmt.Printf("  %-8s rank=%.3f potential=%.3f supporting=%d/%d clusters (%d of %d samples)\n",
			r.NodeID, r.Rank, r.Potential, len(r.Supporting), len(r.Overlaps),
			r.SupportingSamples, r.TotalSamples)
	}

	// 5. Execute the query: top-2 nodes train on supporting clusters,
	//    predictions aggregate with ranking weights (Eq. 7).
	res, _, err := fleet.Leader.Execute(context.Background(), federation.Request{
		Query:       q,
		Selector:    selection.QueryDriven{Epsilon: 0.6, TopL: 2},
		Aggregation: federation.WeightedAveraging,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected: ")
	for _, p := range res.Participants {
		fmt.Printf("%s (λ-weighting rank %.3f) ", p.NodeID, p.Rank)
	}
	fmt.Printf("\ntrained on %d of %d federation samples (%.1f%%) in %s\n",
		res.Stats.SamplesUsed, res.Stats.SamplesAllNodes,
		100*res.Stats.DataFraction(), res.Stats.TrainTime)

	// 6. Score the global model on held-out data inside the query.
	if mse, n, ok := federation.EvaluateResult(res, fleet.Test); ok {
		fmt.Printf("test MSE over the query subspace: %.2f (%d samples)\n", mse, n)
	}

	// 7. Predict PM2.5 at the query's center temperature.
	center := q.Bounds.Center()
	fmt.Printf("predicted PM2.5 at TEMP=%.1f°C: %.1f µg/m³\n",
		center[0], res.Ensemble.Predict([]float64{center[0]}))
}
