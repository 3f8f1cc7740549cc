package nn

import (
	"math"
	"testing"

	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// numericalGrad estimates dLoss/dParams by central differences.
func numericalGrad(n *Network, x []float64, label int) tensor.Vec {
	const eps = 1e-6
	p := n.Params()
	out := make(tensor.Vec, len(p))
	for i := range p {
		orig := p[i]
		p[i] = orig + eps
		lp, _ := lossOnly(n, x, label)
		p[i] = orig - eps
		lm, _ := lossOnly(n, x, label)
		p[i] = orig
		out[i] = (lp - lm) / (2 * eps)
	}
	return out
}

func lossOnly(n *Network, x []float64, label int) (float64, []float64) {
	return SoftmaxCrossEntropy(n.Forward(x), label)
}

// checkGradients compares analytic and numerical gradients for a model.
func checkGradients(t *testing.T, n *Network, x []float64, label int, tol float64) {
	t.Helper()
	analytic := make(tensor.Vec, n.NumParams())
	n.LossGrad(x, label, analytic)
	numeric := numericalGrad(n, x, label)
	for i := range analytic {
		diff := math.Abs(analytic[i] - numeric[i])
		scale := math.Max(1, math.Abs(numeric[i]))
		if diff/scale > tol {
			t.Fatalf("param %d: analytic %v vs numeric %v", i, analytic[i], numeric[i])
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	r := rng.New(1)
	n := MustNetwork(r, NewDense(5, 3))
	x := r.NormVec(make([]float64, 5), 0, 1)
	checkGradients(t, n, x, 1, 1e-5)
}

func TestMLPGradCheck(t *testing.T) {
	r := rng.New(2)
	n := NewMLP(r, 6, []int{8, 7}, 4)
	x := r.NormVec(make([]float64, 6), 0, 1)
	checkGradients(t, n, x, 3, 1e-4)
}

func TestTanhGradCheck(t *testing.T) {
	r := rng.New(3)
	n := MustNetwork(r, NewDense(4, 6), NewTanh(6), NewDense(6, 3))
	x := r.NormVec(make([]float64, 4), 0, 1)
	checkGradients(t, n, x, 0, 1e-5)
}

func TestConvGradCheck(t *testing.T) {
	r := rng.New(4)
	conv := NewConv2D(2, 5, 5, 3, 3, 1)
	n := MustNetwork(r, conv, NewReLU(conv.OutDim()), NewDense(conv.OutDim(), 2))
	x := r.NormVec(make([]float64, conv.InDim()), 0, 1)
	checkGradients(t, n, x, 1, 1e-4)
}

func TestConvStrideGradCheck(t *testing.T) {
	r := rng.New(5)
	conv := NewConv2D(1, 6, 6, 2, 3, 2)
	n := MustNetwork(r, conv, NewDense(conv.OutDim(), 2))
	x := r.NormVec(make([]float64, conv.InDim()), 0, 1)
	checkGradients(t, n, x, 0, 1e-4)
}

func TestResidualGradCheck(t *testing.T) {
	r := rng.New(6)
	n := MustNetwork(r, NewResidual(5, 7), NewDense(5, 3))
	x := r.NormVec(make([]float64, 5), 0, 1)
	checkGradients(t, n, x, 2, 1e-4)
}

func TestMiniModelsGradCheck(t *testing.T) {
	r := rng.New(7)
	alex := NewMiniAlexNet(r, 1, 8, 8, 3)
	x := r.NormVec(make([]float64, alex.InDim()), 0, 1)
	checkGradients(t, alex, x, 2, 1e-4)

	res := NewMiniResNet(r, 6, 8, 2, 3)
	// Zero-init residual branches put post-block activations exactly on
	// the ReLU kink, where central differences disagree with the (valid)
	// subgradient; nudge all parameters off the kink first.
	for i, p := range res.Params() {
		res.Params()[i] = p + 0.01*r.Norm()
	}
	x2 := r.NormVec(make([]float64, 6), 0, 1)
	checkGradients(t, res, x2, 0, 1e-4)

	bow := NewBoWText(r, 12, 8, 2)
	x3 := r.NormVec(make([]float64, 12), 0, 1)
	checkGradients(t, bow, x3, 1, 1e-4)
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	loss, grad := SoftmaxCrossEntropy([]float64{0, 0, 0}, 1)
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want ln 3", loss)
	}
	// Gradient sums to zero (softmax − one-hot).
	var s float64
	for _, g := range grad {
		s += g
	}
	if math.Abs(s) > 1e-12 {
		t.Fatalf("grad sum %v", s)
	}
	// Extreme logits must not overflow.
	loss, _ = SoftmaxCrossEntropy([]float64{1e4, -1e4}, 0)
	if loss > 1e-6 || math.IsNaN(loss) {
		t.Fatalf("confident correct loss = %v", loss)
	}
	loss, _ = SoftmaxCrossEntropy([]float64{1e4, -1e4}, 1)
	if math.IsInf(loss, 0) || math.IsNaN(loss) {
		t.Fatalf("confident wrong loss = %v", loss)
	}
}

func TestNetworkValidation(t *testing.T) {
	r := rng.New(8)
	if _, err := NewNetwork(r); err == nil {
		t.Fatal("empty network accepted")
	}
	if _, err := NewNetwork(r, NewDense(3, 4), NewDense(5, 2)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	r := rng.New(9)
	n := NewLogReg(r, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.Forward(make([]float64, 3))
}

func TestLossGradValidation(t *testing.T) {
	r := rng.New(10)
	n := NewLogReg(r, 2, 2)
	x := []float64{1, 2}
	for _, fn := range []func(){
		func() { n.LossGrad(x, 0, make(tensor.Vec, 1)) },
		func() { n.LossGrad(x, 5, make(tensor.Vec, n.NumParams())) },
		func() { n.LossGrad(x, -1, make(tensor.Vec, n.NumParams())) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestLossGradBatchValidation: the grad-length, batch-length, input-dim
// and label panics fire whichever sample of a batch is at fault.
func TestLossGradBatchValidation(t *testing.T) {
	r := rng.New(15)
	n := NewMLP(r, 3, []int{4}, 2)
	good := []float64{1, 2, 3}
	for _, bad := range []int{0, 3, 4} {
		xs := [][]float64{good, good, good, good, good}
		labels := []int{0, 1, 0, 1, 0}
		for _, fn := range []func(){
			func() { n.LossGradBatch(xs, labels, make(tensor.Vec, 1), make([]float64, 5)) },
			func() { n.LossGradBatch(xs, labels[:4], make(tensor.Vec, n.NumParams()), make([]float64, 5)) },
			func() { n.LossGradBatch(xs, labels, make(tensor.Vec, n.NumParams()), make([]float64, 4)) },
			func() {
				xs[bad] = good[:2]
				defer func() { xs[bad] = good }()
				n.LossGradBatch(xs, labels, make(tensor.Vec, n.NumParams()), make([]float64, 5))
			},
			func() {
				labels[bad] = 2
				defer func() { labels[bad] = bad % 2 }()
				n.LossGradBatch(xs, labels, make(tensor.Vec, n.NumParams()), make([]float64, 5))
			},
			func() {
				labels[bad] = -1
				defer func() { labels[bad] = bad % 2 }()
				n.LossGradBatch(xs, labels, make(tensor.Vec, n.NumParams()), make([]float64, 5))
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("sample %d: expected panic", bad)
					}
				}()
				fn()
			}()
		}
	}
}

// denseForwardRef and denseBackwardRef are Dense's per-sample passes as
// they were before the batch pass replaced them, kept verbatim as the
// reference the batch is pinned to.
func denseForwardRef(d *Dense, p, in []float64) []float64 {
	out := make([]float64, d.Out)
	b := p[d.In*d.Out:]
	for o := 0; o < d.Out; o++ {
		row := p[o*d.In : (o+1)*d.In]
		s := b[o]
		for i, x := range in {
			s += row[i] * x
		}
		out[o] = s
	}
	return out
}

func denseBackwardRef(d *Dense, p, in, dout, dp []float64) []float64 {
	din := make([]float64, d.In)
	dB := dp[d.In*d.Out:]
	for o := 0; o < d.Out; o++ {
		g := dout[o]
		row := p[o*d.In : (o+1)*d.In]
		dRow := dp[o*d.In : (o+1)*d.In]
		dB[o] += g
		for i := 0; i < d.In; i++ {
			dRow[i] += g * in[i]
			din[i] += g * row[i]
		}
	}
	return din
}

// lossGradRef is LossGrad's per-sample body as it was, over the
// reference Dense passes.
func lossGradRef(n *Network, x []float64, label int, grad tensor.Vec) float64 {
	acts := make([][]float64, len(n.layers)+1)
	acts[0] = x
	for i, l := range n.layers {
		if d, ok := l.(*Dense); ok {
			acts[i+1] = denseForwardRef(d, n.paramSlice(i), acts[i])
		} else {
			acts[i+1] = l.Forward(n.paramSlice(i), acts[i])
		}
	}
	loss, dout := SoftmaxCrossEntropy(acts[len(n.layers)], label)
	for i := len(n.layers) - 1; i >= 0; i-- {
		l := n.layers[i]
		dp := grad[n.offsets[i] : n.offsets[i]+l.NumParams()]
		if d, ok := l.(*Dense); ok {
			dout = denseBackwardRef(d, n.paramSlice(i), acts[i], dout, dp)
		} else {
			dout = l.Backward(n.paramSlice(i), acts[i], acts[i+1], dout, dp)
		}
	}
	return loss
}

// TestLossGradBatchMatchesPerSample pins the layer-major batch to the
// per-sample pass: the accumulated gradient and every sample's loss are
// bit-equal to LossGrad called on each sample in order, and to the
// per-sample pass as it was before Dense had a batch form — for every
// model family, batch sizes on both sides of the four-sample group, a
// repeated sample, and a gradient that is not zero on entry.
func TestLossGradBatchMatchesPerSample(t *testing.T) {
	models := map[string]func(r *rng.PCG) *Network{
		"logreg":   func(r *rng.PCG) *Network { return NewLogReg(r, 9, 3) },
		"mlp":      func(r *rng.PCG) *Network { return NewMLP(r, 12, []int{16, 8}, 5) },
		"alexnet":  func(r *rng.PCG) *Network { return NewMiniAlexNet(r, 2, 8, 8, 4) },
		"resnet":   func(r *rng.PCG) *Network { return NewMiniResNet(r, 7, 10, 2, 3) },
		"bow-text": func(r *rng.PCG) *Network { return NewBoWText(r, 20, 8, 2) },
	}
	for name, build := range models {
		for _, batch := range []int{1, 3, 4, 5, 8} {
			r := rng.New(uint64(16 + batch))
			n := build(r)
			// Off the ReLU kinks of the zero-initialised branches.
			for i, p := range n.Params() {
				n.Params()[i] = p + 0.05*r.Norm()
			}
			xs := make([][]float64, batch)
			labels := make([]int, batch)
			for b := range xs {
				xs[b] = r.NormVec(make([]float64, n.InDim()), 0, 1)
				labels[b] = r.Intn(n.OutDim())
			}
			if batch > 2 {
				xs[2], labels[2] = xs[0], labels[0] // a batch may draw a sample twice
			}
			start := r.NormVec(make(tensor.Vec, n.NumParams()), 0, 1)

			got := tensor.Clone(start)
			losses := make([]float64, batch)
			n.LossGradBatch(xs, labels, got, losses)

			perSample, ref := tensor.Clone(start), tensor.Clone(start)
			for b := range xs {
				loss := n.LossGrad(xs[b], labels[b], perSample)
				refLoss := lossGradRef(n, xs[b], labels[b], ref)
				if math.Float64bits(losses[b]) != math.Float64bits(loss) ||
					math.Float64bits(losses[b]) != math.Float64bits(refLoss) {
					t.Fatalf("%s B=%d: sample %d loss %v, per-sample %v, reference %v", name, batch, b, losses[b], loss, refLoss)
				}
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(perSample[i]) ||
					math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s B=%d: grad[%d] %v, per-sample %v, reference %v", name, batch, i, got[i], perSample[i], ref[i])
				}
			}
		}
	}
}

func TestParamsLiveView(t *testing.T) {
	r := rng.New(11)
	n := NewLogReg(r, 2, 2)
	before := n.Forward([]float64{1, 1})
	p := n.Params()
	for i := range p {
		p[i] += 10
	}
	after := n.Forward([]float64{1, 1})
	if before[0] == after[0] {
		t.Fatal("mutating Params() did not affect the model")
	}
}

func TestSetParams(t *testing.T) {
	r := rng.New(12)
	n := NewLogReg(r, 2, 2)
	src := make(tensor.Vec, n.NumParams())
	n.SetParams(src)
	if tensor.Norm2(n.Params()) != 0 {
		t.Fatal("SetParams did not copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad dim")
		}
	}()
	n.SetParams(make(tensor.Vec, 1))
}

func TestFlopsPositive(t *testing.T) {
	r := rng.New(13)
	for _, n := range []*Network{
		NewLogReg(r, 10, 2),
		NewMLP(r, 10, []int{20}, 3),
		NewMiniAlexNet(r, 1, 8, 8, 4),
		NewMiniResNet(r, 8, 16, 2, 4),
		NewBoWText(r, 32, 16, 2),
	} {
		if n.Flops() <= 0 {
			t.Fatalf("model %v reports no flops", n.layers[0].Name())
		}
		if n.NumParams() <= 0 {
			t.Fatal("no parameters")
		}
	}
}

// TestTrainingReducesLoss: a few SGD steps on a separable toy problem
// must reduce the loss — the end-to-end sanity check of the substrate.
func TestTrainingReducesLoss(t *testing.T) {
	r := rng.New(14)
	n := NewMLP(r, 2, []int{16}, 2)
	// Two Gaussian blobs.
	var xs [][]float64
	var ys []int
	for i := 0; i < 200; i++ {
		cls := i % 2
		cx := 2.0
		if cls == 1 {
			cx = -2.0
		}
		xs = append(xs, []float64{cx + 0.5*r.Norm(), 0.5 * r.Norm()})
		ys = append(ys, cls)
	}
	grad := make(tensor.Vec, n.NumParams())
	lossAt := func() float64 {
		var s float64
		for i := range xs {
			l, _ := lossOnly(n, xs[i], ys[i])
			s += l
		}
		return s / float64(len(xs))
	}
	before := lossAt()
	for epoch := 0; epoch < 20; epoch++ {
		tensor.Zero(grad)
		for i := range xs {
			n.LossGrad(xs[i], ys[i], grad)
		}
		tensor.Axpy(n.Params(), -0.5/float64(len(xs)), grad)
	}
	after := lossAt()
	if after >= before/2 {
		t.Fatalf("loss did not halve: %v → %v", before, after)
	}
	// Accuracy should be near-perfect on this separable toy.
	correct := 0
	for i := range xs {
		if n.Predict(xs[i]) == ys[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(xs)) < 0.95 {
		t.Fatalf("accuracy %d/200", correct)
	}
}

func TestReLUZeroNegatives(t *testing.T) {
	l := NewReLU(3)
	out := l.Forward(nil, []float64{-1, 0, 2})
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("ReLU forward: %v", out)
	}
}

func TestConvShapeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewConv2D(1, 2, 2, 1, 3, 1) // kernel larger than input
}

func BenchmarkMLPLossGrad(b *testing.B) {
	r := rng.New(1)
	n := NewMLP(r, 64, []int{128, 64}, 10)
	x := r.NormVec(make([]float64, 64), 0, 1)
	grad := make(tensor.Vec, n.NumParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.LossGrad(x, 3, grad)
	}
}

// BenchmarkLossGradBatch times one worker's local step of the train_marsit
// benchmark workload — MLP 192→384→64→10, a batch of eight — as one
// layer-major LossGradBatch and as the per-sample LossGrad loop it
// replaced in the trainer.
func BenchmarkLossGradBatch(b *testing.B) {
	const batch = 8
	r := rng.New(1)
	n := NewMLP(r, 192, []int{384, 64}, 10)
	xs := make([][]float64, batch)
	labels := make([]int, batch)
	for i := range xs {
		xs[i] = r.NormVec(make([]float64, n.InDim()), 0, 1)
		labels[i] = r.Intn(n.OutDim())
	}
	grad := make(tensor.Vec, n.NumParams())
	losses := make([]float64, batch)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.LossGradBatch(xs, labels, grad, losses)
		}
	})
	b.Run("per-sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := range xs {
				losses[s] = n.LossGrad(xs[s], labels[s], grad)
			}
		}
	})
}

func BenchmarkConvLossGrad(b *testing.B) {
	r := rng.New(1)
	n := NewMiniAlexNet(r, 3, 8, 8, 10)
	x := r.NormVec(make([]float64, n.InDim()), 0, 1)
	grad := make(tensor.Vec, n.NumParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.LossGrad(x, 3, grad)
	}
}
