// Healthcare scenario: the motivation from the paper's introduction
// and §IV-A — hospitals cannot share patient records, but a study
// needs a model over a specific cohort: "learning the relation between
// age range ... with the chance of getting a specific kind of cancer
// does not require all value ranges about all patients in a hospital;
// just those with age e.g., between 20 and 50".
//
// Four hospitals hold (age, biomarker -> risk score) data with very
// different patient populations: a pediatric clinic, two general
// hospitals, and a geriatric center. The query asks for the 20-50 age
// cohort with mid-range biomarker values; the query-driven mechanism
// must pick the general hospitals and train only on their matching
// clusters.
//
// Run: go run ./examples/healthcare
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"qens/internal/dataset"
	"qens/internal/federation"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// hospital generates a synthetic patient registry: risk rises with age
// and biomarker level, plus site-specific noise.
func hospital(name string, ageLo, ageHi float64, n int, seed uint64) *dataset.Dataset {
	src := rng.New(seed)
	d := dataset.MustNew([]string{"age", "biomarker", "risk"}, "risk")
	for i := 0; i < n; i++ {
		age := src.Uniform(ageLo, ageHi)
		marker := math.Abs(src.Normal(3+age/20, 1.2))
		risk := 0.4*age + 6*marker + src.Normal(0, 3)
		d.MustAppend([]float64{age, marker, risk})
	}
	return d
}

func main() {
	registries := []*dataset.Dataset{
		hospital("pediatric", 0, 16, 900, 1),
		hospital("general-a", 18, 70, 900, 2),
		hospital("general-b", 25, 85, 900, 3),
		hospital("geriatric", 65, 100, 900, 4),
	}
	names := []string{"pediatric", "general-a", "general-b", "geriatric"}

	fleet, err := federation.NewSimulatedFleet(registries, federation.Config{
		Spec:        ml.PaperLR(2), // two features: age, biomarker
		ClusterK:    5,
		LocalEpochs: 8,
		Seed:        9,
	}, federation.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The cohort query: ages 20-50, biomarker 2-7, any risk value.
	cohort, err := query.New("cohort-20-50", geometry.MustRect(
		[]float64{20, 2, -1e3},
		[]float64{50, 7, 1e3},
	))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cohort query: age 20-50, biomarker 2-7\n\n")

	summaries, err := fleet.Leader.Summaries()
	if err != nil {
		log.Fatal(err)
	}
	// ε = 0.7: with one unconstrained dimension (risk always overlaps
	// fully) a binding threshold must demand real age+biomarker
	// overlap too.
	ranks, err := selection.RankNodes(cohort, summaries, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	selection.SortByRank(ranks)
	fmt.Println("hospital ranking for the cohort:")
	for _, r := range ranks {
		idx := 0
		fmt.Sscanf(r.NodeID, "node-%d", &idx)
		fmt.Printf("  %-10s rank=%.3f  matching records: %d of %d\n",
			names[idx], r.Rank, r.SupportingSamples, r.TotalSamples)
	}

	res, _, err := fleet.Leader.Execute(context.Background(), federation.Request{
		Query:       cohort,
		Selector:    selection.QueryDriven{Epsilon: 0.7, TopL: 2},
		Aggregation: federation.WeightedAveraging,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nengaged hospitals: ")
	for _, p := range res.Participants {
		idx := 0
		fmt.Sscanf(p.NodeID, "node-%d", &idx)
		fmt.Printf("%s ", names[idx])
	}
	fmt.Printf("\ncohort model trained on %d records (%.1f%% of all hospital data), no raw data shared\n",
		res.Stats.SamplesUsed, 100*res.Stats.DataFraction())

	if mse, n, ok := federation.EvaluateResult(res, fleet.Test); ok {
		fmt.Printf("held-out cohort MSE: %.2f over %d patients\n", mse, n)
	}
	fmt.Printf("predicted risk for (age=35, biomarker=4.5): %.1f\n",
		res.Ensemble.Predict([]float64{35, 4.5}))
}
