package ml

import (
	"context"
	"fmt"
	"math"

	"qens/internal/rng"
)

// neuralNet is the paper's NN model: a dense multi-layer perceptron
// with relu hidden activations and a linear output unit, trained with
// mini-batch gradient descent under MSE loss (Table III: one hidden
// layer of 64 units, lr 0.001, 100 epochs, validation split 0.2).
// Like the linear model it standardizes inputs/targets with streaming
// statistics.
type neuralNet struct {
	spec Spec
	act  activation
	// relu marks the default activation, which the row kernels apply
	// inline instead of calling through the activation table.
	relu bool
	// params is the flat parameter vector the optimizer steps in
	// place: each layer's weights then its biases, layer by layer.
	// The layers' w and b slices alias it.
	params  []float64
	layers  []denseLayer
	stats   *runningStats
	opt     optimizer
	src     *rng.Source
	history History

	// scratch is the reusable working set of the row kernels, sized
	// once from the layer widths, so neither training nor batched
	// prediction allocates. Makes the model unsafe for concurrent
	// use (see Model docs).
	scratch struct {
		perm []int
		grad []float64 // laid out like params
		// acts[l] holds one row of layer l's input (acts[0] is the
		// normalized feature row, acts[len(layers)] the output).
		acts [][]float64
		// deltas[l] holds one row of dL/dz for layer l's output.
		deltas [][]float64
	}
}

// denseLayer is one fully connected layer over slices of the model's
// flat parameter vector: w is in x out row-major, b has out entries.
// gw and gb are the matching slices of the flat gradient. hidden marks
// layers followed by the nonlinearity; the output layer is linear.
type denseLayer struct {
	in, out int
	w, b    []float64
	gw, gb  []float64
	hidden  bool
}

func newNeuralNet(spec Spec, src *rng.Source) *neuralNet {
	act, err := lookupActivation(spec.Activation)
	if err != nil {
		// Spec.Validate runs before construction; this is a
		// programming error, not a data condition.
		panic(err)
	}
	m := &neuralNet{
		spec:  spec,
		act:   act,
		relu:  act.name == ActivationRelu,
		stats: newRunningStats(spec.InputDim),
		src:   src,
	}
	m.bindLayers(nnWidths(spec))
	m.initWeights()
	m.opt = newOptimizer(spec.Optimizer, spec.LearningRate, len(m.params))
	return m
}

// nnWidths returns the layer widths of spec's network: input, hidden
// layers, then the single output unit.
func nnWidths(spec Spec) []int {
	widths := append([]int{spec.InputDim}, spec.Hidden...)
	return append(widths, 1)
}

// bindLayers allocates a zero parameter vector for the given widths,
// points the layers at their segments of it, and sizes the row
// scratch.
func (m *neuralNet) bindLayers(widths []int) {
	n := 0
	for l := 1; l < len(widths); l++ {
		n += widths[l-1]*widths[l] + widths[l]
	}
	m.params = make([]float64, n)
	m.scratch.grad = make([]float64, n)
	m.layers = make([]denseLayer, len(widths)-1)
	offset := 0
	for l := range m.layers {
		in, out := widths[l], widths[l+1]
		wEnd, bEnd := offset+in*out, offset+in*out+out
		m.layers[l] = denseLayer{
			in: in, out: out,
			w: m.params[offset:wEnd], b: m.params[wEnd:bEnd],
			gw: m.scratch.grad[offset:wEnd], gb: m.scratch.grad[wEnd:bEnd],
			hidden: l < len(m.layers)-1,
		}
		offset = bEnd
	}
	m.scratch.acts = make([][]float64, len(widths))
	for l, w := range widths {
		m.scratch.acts[l] = make([]float64, w)
	}
	m.scratch.deltas = make([][]float64, len(m.layers))
	for l, layer := range m.layers {
		m.scratch.deltas[l] = make([]float64, layer.out)
	}
}

// initWeights draws He-initialized weights (relu layers) from m.src
// in row-major order and zeroes the biases.
func (m *neuralNet) initWeights() {
	for _, layer := range m.layers {
		scale := math.Sqrt(2 / float64(layer.in))
		for i := range layer.w {
			layer.w[i] = m.src.Normal(0, scale)
		}
		clear(layer.b)
	}
}

// Fit trains for the configured epochs with a validation split.
func (m *neuralNet) Fit(x [][]float64, y []float64) error {
	if err := checkXY(x, y, m.spec.InputDim); err != nil {
		return err
	}
	m.history = History{}
	tx, ty, vx, vy := splitTrainVal(x, y, m.spec.ValidationSplit, m.src)
	if len(tx) == 0 {
		tx, ty = x, y
	}
	m.stats.observe(tx, ty)
	for epoch := 0; epoch < m.spec.Epochs; epoch++ {
		if err := m.runEpoch(context.Background(), tx, nil, ty); err != nil {
			return err
		}
		m.history.TrainLoss = append(m.history.TrainLoss, MSE(ty, m.PredictBatch(tx)))
		if len(vx) > 0 {
			m.history.ValLoss = append(m.history.ValLoss, MSE(vy, m.PredictBatch(vx)))
		}
		if stopEarly(m.history.ValLoss, m.spec.Patience) {
			break
		}
		m.applyDecay()
	}
	return nil
}

// PartialFit continues training on a batch without resetting weights.
func (m *neuralNet) PartialFit(x [][]float64, y []float64, epochs int) error {
	return m.PartialFitContext(context.Background(), x, y, epochs)
}

// PartialFitContext is PartialFit with cancellation at mini-batch
// boundaries.
func (m *neuralNet) PartialFitContext(ctx context.Context, x [][]float64, y []float64, epochs int) error {
	if err := checkXY(x, y, m.spec.InputDim); err != nil {
		return err
	}
	return m.partialFit(ctx, x, nil, y, epochs)
}

// PartialFitBatch is the flat, zero-copy training path: x is
// row-major with stride InputDim. Bit-exact with PartialFit over the
// equivalent [][]float64 batch.
func (m *neuralNet) PartialFitBatch(ctx context.Context, x []float64, y []float64, epochs int) error {
	if err := checkFlatXY(x, y, m.spec.InputDim); err != nil {
		return err
	}
	return m.partialFit(ctx, nil, x, y, epochs)
}

// partialFit drives epochs over either data representation.
func (m *neuralNet) partialFit(ctx context.Context, x2 [][]float64, xf []float64, y []float64, epochs int) error {
	if epochs < 1 {
		return fmt.Errorf("ml: partial fit epochs %d < 1", epochs)
	}
	if x2 != nil {
		m.stats.observe(x2, y)
	} else {
		m.stats.observeFlat(xf, y, m.spec.InputDim)
	}
	for e := 0; e < epochs; e++ {
		if err := m.runEpoch(ctx, x2, xf, y); err != nil {
			return err
		}
		m.applyDecay()
	}
	return nil
}

// runEpoch performs one shuffled pass of mini-batch backprop,
// checking ctx before every mini-batch.
func (m *neuralNet) runEpoch(ctx context.Context, x2 [][]float64, xf []float64, y []float64) error {
	n := len(y)
	if cap(m.scratch.perm) < n {
		m.scratch.perm = make([]int, n)
	}
	perm := m.src.PermInto(m.scratch.perm[:n])
	for start := 0; start < n; start += m.spec.BatchSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + m.spec.BatchSize
		if end > n {
			end = n
		}
		m.trainBatch(x2, xf, y, perm[start:end])
	}
	return nil
}

// trainBatch runs forward + backward on one mini-batch and applies
// the optimizer step. Rows stream through the row kernels one at a
// time, accumulating the flat gradient in batch order; see DESIGN.md
// §11 for the operation-order contract that keeps the result bit-exact
// with the batched matrix formulation (gW = aᵀ·δ, gb = Σδ,
// δ_prev = (δ·Wᵀ) ⊙ f'(a)).
func (m *neuralNet) trainBatch(x2 [][]float64, xf []float64, y []float64, batch []int) {
	d := m.spec.InputDim
	acts := m.scratch.acts
	top := len(m.layers) - 1
	grad := m.scratch.grad
	clear(grad)
	invN := 1 / float64(len(batch))
	for _, idx := range batch {
		m.stats.normX(acts[0], rowAt(x2, xf, d, idx))
		m.forwardRow()
		// Output delta: dL/dz = 2(pred - target)/n for MSE.
		m.scratch.deltas[top][0] = 2 * (acts[top+1][0] - m.stats.normY(y[idx])) * invN
		m.backwardRow()
	}

	// L2 weight decay: applies to weights, not biases.
	if m.spec.L2 > 0 {
		for _, layer := range m.layers {
			for i, w := range layer.w {
				layer.gw[i] += m.spec.L2 * w
			}
		}
	}

	clipGradient(grad, 50)
	m.opt.step(m.params, grad)
}

// forwardRow runs the row in scratch.acts[0] through every layer:
// acts[l+1] = f(acts[l]·W + b) with f the activation on hidden layers.
// Each output element is accumulated from 0 in ascending k, skipping
// zero inputs, before the bias is added and the activation applied.
func (m *neuralNet) forwardRow() {
	acts := m.scratch.acts
	for l := range m.layers {
		layer := &m.layers[l]
		in, z := acts[l], acts[l+1]
		switch {
		case layer.in == 1:
			clear(z)
			if a := in[0]; a != 0 {
				w := layer.w[:len(z)]
				for j := range z {
					z[j] += a * w[j]
				}
			}
		case layer.out == 1:
			w := layer.w[:len(in)]
			s := 0.0
			for k, a := range in {
				if a != 0 {
					s += a * w[k]
				}
			}
			z[0] = s
		default:
			clear(z)
			for k, a := range in {
				if a == 0 {
					continue
				}
				wk := layer.w[k*layer.out : (k+1)*layer.out]
				for j, w := range wk {
					z[j] += a * w
				}
			}
		}
		b := layer.b[:len(z)]
		switch {
		case !layer.hidden:
			for j := range z {
				z[j] += b[j]
			}
		case m.relu:
			for j := range z {
				v := z[j] + b[j]
				if v < 0 {
					v = 0
				}
				z[j] = v
			}
		default:
			f := m.act.fn
			for j := range z {
				z[j] = f(z[j] + b[j])
			}
		}
	}
}

// backwardRow folds one row's contribution into scratch.grad, from the
// output delta in scratch.deltas[top] down: gW += aᵀ·δ (skipping zero
// inputs), gb += δ, and for every layer but the first the input delta
// δ_prev = (δ·Wᵀ) ⊙ f'(a), each dot product accumulated from 0 in
// ascending j. The derivative is multiplied in, never selected, so a
// relu row yields s*1 or s*0 exactly as the activation table does.
func (m *neuralNet) backwardRow() {
	acts, deltas := m.scratch.acts, m.scratch.deltas
	for l := len(m.layers) - 1; l >= 0; l-- {
		layer := &m.layers[l]
		gw, gb := layer.gw, layer.gb
		a, delta := acts[l], deltas[l]
		for j, dj := range delta {
			gb[j] += dj
		}
		var prev []float64
		if l > 0 {
			prev = deltas[l-1]
		}
		switch {
		case layer.out == 1 && prev != nil:
			dj := delta[0]
			w, g, p := layer.w[:len(a)], gw[:len(a)], prev[:len(a)]
			for k, ak := range a {
				if ak != 0 {
					g[k] += ak * dj
				}
				s := 0.0
				s += dj * w[k]
				p[k] = m.scaleByDeriv(s, ak)
			}
		case layer.in == 1 && prev == nil:
			if ak := a[0]; ak != 0 {
				g := gw[:len(delta)]
				for j, dj := range delta {
					g[j] += ak * dj
				}
			}
		default:
			for k, ak := range a {
				if ak != 0 {
					g := gw[k*layer.out : (k+1)*layer.out]
					for j, dj := range delta {
						g[j] += ak * dj
					}
				}
				if prev != nil {
					wk := layer.w[k*layer.out : (k+1)*layer.out]
					s := 0.0
					for j, dj := range delta {
						s += dj * wk[j]
					}
					prev[k] = m.scaleByDeriv(s, ak)
				}
			}
		}
	}
}

// scaleByDeriv returns s * f'(z) for the hidden activation, with f'
// expressed in terms of the activation output y = f(z).
func (m *neuralNet) scaleByDeriv(s, y float64) float64 {
	if m.relu {
		if y > 0 {
			return s * 1
		}
		return s * 0
	}
	return s * m.act.dFromOutput(y)
}

// forward computes the standardized output for one input vector.
func (m *neuralNet) forward(x []float64) float64 {
	cur := make([]float64, len(x))
	m.stats.normX(cur, x)
	for _, layer := range m.layers {
		next := make([]float64, layer.out)
		for j := range next {
			sum := layer.b[j]
			for i, v := range cur {
				sum += v * layer.w[i*layer.out+j]
			}
			if layer.hidden {
				sum = m.act.fn(sum)
			}
			next[j] = sum
		}
		cur = next
	}
	return cur[0]
}

// Predict returns the raw-scale prediction for one input.
func (m *neuralNet) Predict(x []float64) float64 {
	return m.stats.denormY(m.forward(x))
}

// PredictBatch returns raw-scale predictions for many inputs through
// the same row kernel as PredictFlat.
func (m *neuralNet) PredictBatch(x [][]float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	for i, row := range x {
		if len(row) != m.spec.InputDim {
			panic(fmt.Sprintf("ml: input %d has %d features, want %d", i, len(row), m.spec.InputDim))
		}
	}
	out := make([]float64, len(x))
	m.predictRows(x, nil, out)
	return out
}

// PredictFlat writes raw-scale predictions for the flat row-major
// input buffer into out, one row at a time through the model's
// scratch.
func (m *neuralNet) PredictFlat(x []float64, out []float64) {
	n := len(out)
	d := m.spec.InputDim
	if len(x) != n*d {
		panic(fmt.Sprintf("ml: flat predict length %d != %d samples x %d features", len(x), n, d))
	}
	m.predictRows(nil, x, out)
}

// predictRows fills out with predictions for either data
// representation (see rowAt).
func (m *neuralNet) predictRows(x2 [][]float64, xf []float64, out []float64) {
	acts := m.scratch.acts
	for i := range out {
		m.stats.normX(acts[0], rowAt(x2, xf, m.spec.InputDim, i))
		m.forwardRow()
		out[i] = m.stats.denormY(acts[len(m.layers)][0])
	}
}

// Params exports weights, biases and normalization state.
func (m *neuralNet) Params() Params {
	values := append([]float64(nil), m.params...)
	values = append(values, m.stats.flatten()...)
	return Params{Kind: KindNN, Dims: nnWidths(m.spec), Values: values}
}

// SetParams loads an exported snapshot.
func (m *neuralNet) SetParams(p Params) error {
	want := m.Params()
	if !p.Compatible(want) {
		return fmt.Errorf("ml: incompatible params (kind %q dims %v) for nn dims %v", p.Kind, p.Dims, want.Dims)
	}
	n := copy(m.params, p.Values)
	m.stats.unflatten(p.Values[n:])
	m.opt.reset()
	return nil
}

// Reinit re-seeds and re-initializes the model in place (see Model).
// Parameter and scratch storage is reused; the RNG draws mirror
// newNeuralNet exactly, so the state is bit-exact with a fresh
// construction.
func (m *neuralNet) Reinit(seed uint64, params Params) error {
	m.src = rng.New(seed)
	m.initWeights()
	m.stats.reset()
	m.opt.reset()
	m.opt.setLR(m.spec.LearningRate)
	m.history = History{}
	if len(params.Values) > 0 {
		return m.SetParams(params)
	}
	return nil
}

// Clone returns an independent copy.
func (m *neuralNet) Clone() Model {
	c := &neuralNet{
		spec:  m.spec,
		act:   m.act,
		relu:  m.relu,
		stats: m.stats.clone(),
		opt:   m.opt.clone(),
		src:   m.src.Split(),
		history: History{
			TrainLoss: append([]float64(nil), m.history.TrainLoss...),
			ValLoss:   append([]float64(nil), m.history.ValLoss...),
		},
	}
	c.bindLayers(nnWidths(m.spec))
	copy(c.params, m.params)
	return c
}

// History returns the last Fit's loss curves.
func (m *neuralNet) History() History { return m.history }

// applyDecay applies the spec's per-epoch learning-rate decay.
func (m *neuralNet) applyDecay() { applyDecay(m.opt, m.spec.LRDecay) }
