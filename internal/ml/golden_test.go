package ml

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"qens/internal/rng"
)

// nnPinnedBits holds, per configuration, FNV-1a digests of the exact
// float64 bit patterns the NN produces: the parameter vector after a
// seeded PartialFitBatch sequence, then PredictFlat and PredictBatch
// outputs on held-out rows. The values were recorded from the
// matrix-kernel implementation that preceded the fused row kernels;
// any change to the floating-point operation order of training or
// batched prediction shows up here as a digest mismatch.
var nnPinnedBits = map[string][3]string{
	"relu/d1/h[64]/l2=0":          {"ecb8991c7907fe4e", "d4ccb16b8341ffe1", "d4ccb16b8341ffe1"},
	"relu/d1/h[64]/l2=0.001":      {"fbde26089b62f1dc", "3a36b851f069e6df", "3a36b851f069e6df"},
	"relu/d1/h[16 8]/l2=0":        {"4128b3e6425b757b", "6da314ba0aa01a88", "6da314ba0aa01a88"},
	"relu/d1/h[16 8]/l2=0.001":    {"6b2f7b9dc5a001ff", "9b5a26b0916c644b", "9b5a26b0916c644b"},
	"relu/d3/h[64]/l2=0":          {"897f821b4388d6d1", "fcd3c73029057b6f", "fcd3c73029057b6f"},
	"relu/d3/h[64]/l2=0.001":      {"61868848423aa61c", "47692f4430b246b2", "47692f4430b246b2"},
	"relu/d3/h[16 8]/l2=0":        {"92fb3bed01453dc0", "b2abc39b20c90eb5", "b2abc39b20c90eb5"},
	"relu/d3/h[16 8]/l2=0.001":    {"0fb1f075c5e89d44", "e5ceb019c96eb648", "e5ceb019c96eb648"},
	"tanh/d1/h[64]/l2=0":          {"104b029abc25c26f", "e488b6831bc38f24", "e488b6831bc38f24"},
	"tanh/d1/h[64]/l2=0.001":      {"030b266f7770eec9", "0b27606a1be2a3f1", "0b27606a1be2a3f1"},
	"tanh/d1/h[16 8]/l2=0":        {"318c0bd0d61efc50", "5c32e24d2728fa84", "5c32e24d2728fa84"},
	"tanh/d1/h[16 8]/l2=0.001":    {"6c59e40ec824f61b", "9e0793362182c782", "9e0793362182c782"},
	"tanh/d3/h[64]/l2=0":          {"19fd7563b4ab4bcc", "93aafa52a3e221ba", "93aafa52a3e221ba"},
	"tanh/d3/h[64]/l2=0.001":      {"81d2b86e8f78c805", "889e8f536c9d7341", "889e8f536c9d7341"},
	"tanh/d3/h[16 8]/l2=0":        {"65e297ae3a4e69d7", "d81d291ca7696df4", "d81d291ca7696df4"},
	"tanh/d3/h[16 8]/l2=0.001":    {"d6becba5a89417ba", "d130a97a3e0d31c2", "d130a97a3e0d31c2"},
	"sigmoid/d1/h[64]/l2=0":       {"a5b055b06e3187c3", "7c939c3242b8b9c7", "7c939c3242b8b9c7"},
	"sigmoid/d1/h[64]/l2=0.001":   {"09a8d808a4b381f8", "34466f50b0176899", "34466f50b0176899"},
	"sigmoid/d1/h[16 8]/l2=0":     {"2a597a3c7c00e013", "650619dcd3d474a2", "650619dcd3d474a2"},
	"sigmoid/d1/h[16 8]/l2=0.001": {"05e38e2097af6a1d", "a54b417bfd62ac6d", "a54b417bfd62ac6d"},
	"sigmoid/d3/h[64]/l2=0":       {"2839d145bb935550", "97c32a9af2685604", "97c32a9af2685604"},
	"sigmoid/d3/h[64]/l2=0.001":   {"44cd7e3476aa4ea4", "2e361c9f501a8101", "2e361c9f501a8101"},
	"sigmoid/d3/h[16 8]/l2=0":     {"0072bb279398e90c", "71d0a73fd61c6113", "71d0a73fd61c6113"},
	"sigmoid/d3/h[16 8]/l2=0.001": {"e340d1cf041cc73f", "cc8ec8cceadcfacd", "cc8ec8cceadcfacd"},
	"linear/d1/h[64]/l2=0":        {"5f9f39f18eedcda8", "3ac0789f353161b6", "3ac0789f353161b6"},
	"linear/d1/h[64]/l2=0.001":    {"ff487bd48608b6f9", "9c904b0a7691ba2d", "9c904b0a7691ba2d"},
	"linear/d1/h[16 8]/l2=0":      {"8acb705b2d0446ae", "f8d4dd264c70cd97", "f8d4dd264c70cd97"},
	"linear/d1/h[16 8]/l2=0.001":  {"5a98a9fa8b90d2d6", "3ce1daf835c8b31b", "3ce1daf835c8b31b"},
	"linear/d3/h[64]/l2=0":        {"90d9fc85f5fde14b", "e22ae3b0b91b5fee", "e22ae3b0b91b5fee"},
	"linear/d3/h[64]/l2=0.001":    {"a4a1ad8c10c11c6a", "2110420705c69117", "2110420705c69117"},
	"linear/d3/h[16 8]/l2=0":      {"8f12960d4f1f6601", "fbe767ef50b0ee39", "fbe767ef50b0ee39"},
	"linear/d3/h[16 8]/l2=0.001":  {"5b4a4347b5a3a519", "90f324dd4cb13729", "90f324dd4cb13729"},
}

// nnGoldenBatch draws a deterministic regression batch: uniform
// features and a nonlinear target with noise.
func nnGoldenBatch(src *rng.Source, n, d int) (x, y []float64) {
	x = make([]float64, n*d)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		for j := range row {
			row[j] = src.Uniform(-4, 4) + float64(j)
		}
		t := row[0]*row[0] - 2*row[0]
		for _, v := range row[1:] {
			t += 1.5 * v
		}
		y[i] = 10*t + src.Normal(0, 0.5)
	}
	return x, y
}

// bitsDigest hashes the IEEE-754 bit patterns of vs in order.
func bitsDigest(vs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestNNPinnedBits pins training and batched prediction bit for bit
// across activation x input width x depth x L2. The row counts (101
// then 19 with batch size 32) leave a ragged final mini-batch and a
// batch smaller than BatchSize, so the partial-batch scaling is
// covered too.
func TestNNPinnedBits(t *testing.T) {
	var regen strings.Builder
	for _, act := range []string{ActivationRelu, ActivationTanh, ActivationSigmoid, ActivationLinear} {
		for _, d := range []int{1, 3} {
			for _, hidden := range [][]int{{64}, {16, 8}} {
				for _, l2 := range []float64{0, 1e-3} {
					name := fmt.Sprintf("%s/d%d/h%v/l2=%g", act, d, hidden, l2)
					spec := PaperNN(d)
					spec.Hidden = hidden
					spec.Activation = act
					spec.L2 = l2
					spec.LearningRate = 0.01
					spec.Seed = 21
					m := spec.MustNew()

					src := rng.New(uint64(40 + d))
					x, y := nnGoldenBatch(src, 101, d)
					ctx := context.Background()
					if err := m.PartialFitBatch(ctx, x, y, 3); err != nil {
						t.Fatal(err)
					}
					x, y = nnGoldenBatch(src, 19, d)
					if err := m.PartialFitBatch(ctx, x, y, 1); err != nil {
						t.Fatal(err)
					}

					xq, _ := nnGoldenBatch(src, 45, d)
					flat := make([]float64, 45)
					m.PredictFlat(xq, flat)
					rows := make([][]float64, 45)
					for i := range rows {
						rows[i] = xq[i*d : (i+1)*d]
					}
					for i, v := range m.Params().Values {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%s: param %d is %v; the case no longer trains", name, i, v)
						}
					}
					got := [3]string{
						bitsDigest(m.Params().Values),
						bitsDigest(flat),
						bitsDigest(m.PredictBatch(rows)),
					}
					fmt.Fprintf(&regen, "\t%q: {%q, %q, %q},\n", name, got[0], got[1], got[2])
					want, ok := nnPinnedBits[name]
					if !ok {
						t.Errorf("%s: no pinned digest", name)
						continue
					}
					for i, what := range []string{"params", "PredictFlat", "PredictBatch"} {
						if got[i] != want[i] {
							t.Errorf("%s: %s bits digest %s, pinned %s", name, what, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("digests of this build:\n%s", regen.String())
	}
}
