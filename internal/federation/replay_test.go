package federation

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"qens/internal/dataset"
	"qens/internal/geometry"
	"qens/internal/ml"
	"qens/internal/query"
	"qens/internal/rng"
	"qens/internal/selection"
)

// replayPinned holds the FNV-64a digests of the seeded replay below,
// keyed by model/selector/aggregation: first every LocalParams vector
// of every query in execution order, then the ensemble's predictions
// at fixed points. They were generated from the single-round pipeline
// before it became concurrent-only, so they pin that the training
// fan-out's scheduling never leaks into the numbers.
var replayPinned = map[string][2]string{
	"lr/query-driven/averaging": {"c7ccad02744c92d5", "41a0ce57a10393cf"},
	"lr/query-driven/weighted":  {"c7ccad02744c92d5", "619ab35bfd06f4b2"},
	"lr/all-nodes/averaging":    {"4113994f072f9c5d", "149ceba00a68f5f0"},
	"lr/all-nodes/weighted":     {"4113994f072f9c5d", "149ceba00a68f5f0"},
	"nn/query-driven/averaging": {"d047a4c05e3535a0", "5d664b37365f7598"},
	"nn/query-driven/weighted":  {"d047a4c05e3535a0", "0041aa8f5cad197f"},
	"nn/all-nodes/averaging":    {"9fb483ad6568ba1b", "d5f662adfaf20c0a"},
	"nn/all-nodes/weighted":     {"9fb483ad6568ba1b", "d5f662adfaf20c0a"},
}

// replayFleet is five overlapping line segments plus one far-off
// segment with the opposite slope, so query-driven selection picks a
// strict subset while AllNodes fans out to all six.
func replayFleet(t *testing.T, spec ml.Spec) *Fleet {
	t.Helper()
	data := []*dataset.Dataset{
		lineDataset(150, 2, 1, 0, 30, 31),
		lineDataset(150, 2, 1, 15, 50, 32),
		lineDataset(150, 2, 1, 35, 70, 33),
		lineDataset(150, 2, 1, 55, 90, 34),
		lineDataset(150, 2, 1, 75, 100, 35),
		lineDataset(150, -2, 400, 150, 200, 36),
	}
	f, err := NewSimulatedFleet(data, Config{Spec: spec, ClusterK: 4, LocalEpochs: 2, Seed: 7}, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// replayQueries draws n rectangles inside [0, 100] on x, each at least
// 10 wide, so every query has a supporting node.
func replayQueries(t *testing.T, n int) []query.Query {
	t.Helper()
	src := rng.New(4242)
	qs := make([]query.Query, n)
	for i := range qs {
		lo := src.Uniform(0, 85)
		hi := lo + src.Uniform(10, 100-lo)
		q, err := query.New(fmt.Sprintf("r%d", i), geometry.MustRect([]float64{lo, -1000}, []float64{hi, 1000}))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

func hashBits(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
}

// TestExecutePinnedDigests replays 40 queries through a fresh seeded
// fleet for every model × selector × aggregation combination and
// checks the trained local models and the ensemble's answers bit for
// bit against digests recorded from the original pipeline.
func TestExecutePinnedDigests(t *testing.T) {
	specs := map[string]ml.Spec{"lr": ml.PaperLR(1), "nn": ml.PaperNN(1)}
	nn := specs["nn"]
	nn.Hidden = []int{8}
	nn.LearningRate = 0.01
	specs["nn"] = nn
	sels := map[string]selection.Selector{
		"query-driven": selection.QueryDriven{Epsilon: 0.5, TopL: 3},
		"all-nodes":    selection.AllNodes{},
	}
	queries := replayQueries(t, 40)
	points := []float64{-5, 10, 33.3, 50, 71.5, 99, 120}

	var regen strings.Builder
	for _, model := range []string{"lr", "nn"} {
		for _, selName := range []string{"query-driven", "all-nodes"} {
			for _, agg := range []Aggregation{ModelAveraging, WeightedAveraging} {
				name := fmt.Sprintf("%s/%s/%s", model, selName, agg)
				f := replayFleet(t, specs[model])
				params, preds := fnv.New64a(), fnv.New64a()
				for _, q := range queries {
					res, _, err := f.Leader.Execute(ctxb(), Request{Query: q, Selector: sels[selName], Aggregation: agg})
					if err != nil {
						t.Fatalf("%s: %s: %v", name, q.ID, err)
					}
					for _, p := range res.LocalParams {
						hashBits(params, p.Values...)
					}
					for _, x := range points {
						hashBits(preds, res.Ensemble.Predict([]float64{x}))
					}
					mid := (q.Bounds.Min[0] + q.Bounds.Max[0]) / 2
					hashBits(preds, res.Ensemble.Predict([]float64{mid}))
				}
				got := [2]string{fmt.Sprintf("%016x", params.Sum64()), fmt.Sprintf("%016x", preds.Sum64())}
				fmt.Fprintf(&regen, "\t%q: {%q, %q},\n", name, got[0], got[1])
				if want, ok := replayPinned[name]; !ok {
					t.Errorf("%s: no pinned digest", name)
				} else if got != want {
					t.Errorf("%s: digests %v, pinned %v", name, got, want)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", regen.String())
	}
}
