package ml

import (
	"context"
	"errors"
	"testing"

	"qens/internal/rng"
)

// flatSpecs returns one spec per model family, exercising the
// non-default optimizer/decay paths so Reinit has real state to reset.
func flatSpecs() []Spec {
	lr := PaperLR(3)
	lr.LRDecay = 0.97
	nn := PaperNN(3)
	nn.Hidden = []int{8, 4}
	nn.L2 = 1e-4
	return []Spec{lr, nn}
}

// flatBatch synthesizes a deterministic training batch in both
// representations.
func flatBatch(n, d int) (x2 [][]float64, xf []float64, y []float64) {
	xf = make([]float64, n*d)
	x2 = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		row := xf[i*d : (i+1)*d]
		for j := range row {
			row[j] = float64((i*7+j*3)%13) - 6 + float64(i)/17
		}
		x2[i] = row
		y[i] = 2*row[0] - row[1] + 0.5*row[2] + float64(i%5)
	}
	return x2, xf, y
}

// TestPartialFitBatchBitExact verifies the flat zero-copy training
// path produces bit-identical parameters to the [][]float64 path for
// both model families — the contract the engine's golden equivalence
// rests on.
func TestPartialFitBatchBitExact(t *testing.T) {
	for _, spec := range flatSpecs() {
		spec.Seed = 5
		x2, xf, y := flatBatch(101, spec.InputDim)

		a := spec.MustNew()
		if err := a.PartialFit(x2, y, 3); err != nil {
			t.Fatal(err)
		}
		b := spec.MustNew()
		if err := b.PartialFitBatch(context.Background(), xf, y, 3); err != nil {
			t.Fatal(err)
		}
		pa, pb := a.Params(), b.Params()
		if len(pa.Values) != len(pb.Values) {
			t.Fatalf("%s: param lengths %d vs %d", spec.Kind, len(pa.Values), len(pb.Values))
		}
		for i := range pa.Values {
			if pa.Values[i] != pb.Values[i] {
				t.Fatalf("%s: param %d: flat %v != 2d %v", spec.Kind, i, pb.Values[i], pa.Values[i])
			}
		}
	}
}

// TestPredictFlatBitExact verifies flat prediction matches
// PredictBatch bit-exactly — the batched path the legacy evaluation
// loop used, and therefore the contract the engine's golden
// equivalence rests on. (Per-row Predict uses a different FP
// accumulation order for the NN — bias-first — so it is NOT the
// reference here.)
func TestPredictFlatBitExact(t *testing.T) {
	for _, spec := range flatSpecs() {
		spec.Seed = 9
		x2, xf, y := flatBatch(64, spec.InputDim)
		m := spec.MustNew()
		if err := m.PartialFit(x2, y, 2); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(y))
		m.PredictFlat(xf, out)
		want := m.PredictBatch(x2)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%s: sample %d: flat %v != batch %v", spec.Kind, i, out[i], want[i])
			}
		}
	}
}

// TestReinitBitExactWithFresh verifies pool-style arena reuse: a used
// model Reinit'ed with a new seed must be indistinguishable — same
// params after the same training — from a freshly constructed one.
func TestReinitBitExactWithFresh(t *testing.T) {
	for _, spec := range flatSpecs() {
		x2, _, y := flatBatch(80, spec.InputDim)

		dirty := spec
		dirty.Seed = 1
		m := dirty.MustNew()
		if err := m.PartialFit(x2, y, 2); err != nil { // accumulate state
			t.Fatal(err)
		}
		if err := m.Reinit(77, Params{}); err != nil {
			t.Fatal(err)
		}
		fresh := spec
		fresh.Seed = 77
		f := fresh.MustNew()

		for round := 0; round < 2; round++ {
			if err := m.PartialFit(x2, y, 1); err != nil {
				t.Fatal(err)
			}
			if err := f.PartialFit(x2, y, 1); err != nil {
				t.Fatal(err)
			}
		}
		pm, pf := m.Params(), f.Params()
		for i := range pf.Values {
			if pm.Values[i] != pf.Values[i] {
				t.Fatalf("%s: param %d: reinit %v != fresh %v", spec.Kind, i, pm.Values[i], pf.Values[i])
			}
		}
	}
}

// TestReinitLoadsParams verifies Reinit(seed, params) equals fresh
// construction + SetParams.
func TestReinitLoadsParams(t *testing.T) {
	for _, spec := range flatSpecs() {
		spec.Seed = 3
		x2, _, y := flatBatch(60, spec.InputDim)
		donor := spec.MustNew()
		if err := donor.PartialFit(x2, y, 1); err != nil {
			t.Fatal(err)
		}
		snapshot := donor.Params()

		m := spec.MustNew()
		if err := m.PartialFit(x2, y, 3); err != nil {
			t.Fatal(err)
		}
		if err := m.Reinit(3, snapshot); err != nil {
			t.Fatal(err)
		}
		f := spec.MustNew()
		if err := f.SetParams(snapshot); err != nil {
			t.Fatal(err)
		}
		if err := m.PartialFit(x2, y, 1); err != nil {
			t.Fatal(err)
		}
		if err := f.PartialFit(x2, y, 1); err != nil {
			t.Fatal(err)
		}
		pm, pf := m.Params(), f.Params()
		for i := range pf.Values {
			if pm.Values[i] != pf.Values[i] {
				t.Fatalf("%s: param %d: reinit+params %v != fresh+set %v", spec.Kind, i, pm.Values[i], pf.Values[i])
			}
		}
	}
}

// TestPartialFitContextCancel verifies training aborts at a mini-batch
// boundary once the context is done.
func TestPartialFitContextCancel(t *testing.T) {
	for _, spec := range flatSpecs() {
		spec.Seed = 2
		x2, _, y := flatBatch(128, spec.InputDim)
		m := spec.MustNew()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := m.PartialFitContext(ctx, x2, y, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled fit returned %v", spec.Kind, err)
		}
	}
}

// TestPartialFitBatchSteadyStateZeroAlloc pins the LR flat path's
// allocation contract: after a warm-up call, repeated flat fits and
// predictions on same-shaped batches allocate nothing.
func TestPartialFitBatchSteadyStateZeroAlloc(t *testing.T) {
	spec := PaperLR(3)
	spec.Seed = 4
	_, xf, y := flatBatch(256, spec.InputDim)
	m := spec.MustNew()
	ctx := context.Background()
	if err := m.PartialFitBatch(ctx, xf, y, 1); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.PartialFitBatch(ctx, xf, y, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state PartialFitBatch allocates %v per run", allocs)
	}
	out := make([]float64, len(y))
	allocs = testing.AllocsPerRun(20, func() { m.PredictFlat(xf, out) })
	if allocs != 0 {
		t.Fatalf("steady-state PredictFlat allocates %v per run", allocs)
	}
}

// TestNNPartialFitBatchSteadyStateZeroAlloc pins the NN's allocation
// contract, matching the LR one above: once warmed, a flat fit makes
// no allocation per batch or per epoch, and flat prediction none per
// row. Covers the paper's 1-64-1 shape (relu inline) and a deeper
// tanh net through the activation table.
func TestNNPartialFitBatchSteadyStateZeroAlloc(t *testing.T) {
	deep := PaperNN(3)
	deep.Hidden = []int{8, 4}
	deep.Activation = ActivationTanh
	deep.L2 = 1e-4
	for _, spec := range []Spec{PaperNN(1), deep} {
		spec.Seed = 4
		xq, yq := nnGoldenBatch(rng.New(8), 300, spec.InputDim)
		m := spec.MustNew()
		ctx := context.Background()
		if err := m.PartialFitBatch(ctx, xq, yq, 1); err != nil { // warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := m.PartialFitBatch(ctx, xq, yq, 5); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: steady-state NN PartialFitBatch allocates %v per run", spec.Hidden, allocs)
		}
		out := make([]float64, len(yq))
		allocs = testing.AllocsPerRun(10, func() { m.PredictFlat(xq, out) })
		if allocs != 0 {
			t.Fatalf("%v: steady-state NN PredictFlat allocates %v per run", spec.Hidden, allocs)
		}
	}
}
