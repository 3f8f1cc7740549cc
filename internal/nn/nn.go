// Package nn is the deep-learning substrate of the reproduction: a
// small neural-network library with manual backpropagation over a flat
// parameter vector.
//
// The paper trains AlexNet, ResNet-20/18/50 and DistilBERT with
// PyTorch on GPUs; none of that exists here, and the compression
// experiments only require that (a) gradients come from a real
// non-convex optimization, (b) parameters live in one flat vector the
// collectives can ship, and (c) model capacity suffices for a visible
// accuracy signal. The layer zoo therefore covers dense, ReLU, 2-D
// convolution and residual blocks — enough to build scaled-down
// analogues of each paper model (see models.go).
//
// All parameters of a Network live in a single flat tensor.Vec, so a
// gradient is likewise one flat vector — exactly the object Marsit and
// the baseline collectives synchronize.
//
// A batch runs layer-major (LossGradBatch): each layer's forward pass for
// every sample, then each layer's backward pass for every sample, so a
// Dense layer reads each weight row once per four samples instead of once
// per sample. Every gradient element still adds its samples'
// contributions in sample order, which makes the batch bit-identical to
// LossGrad called on each sample in turn. That order is the rule a layer's
// batch pass must keep.
package nn

import (
	"fmt"
	"math"

	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// Layer is one differentiable stage of a network. Parameters are views
// into the network's flat vector; layers are stateless between calls.
type Layer interface {
	// Name identifies the layer in diagnostics.
	Name() string
	// NumParams returns the layer's parameter count.
	NumParams() int
	// OutDim returns the output width.
	OutDim() int
	// InDim returns the expected input width.
	InDim() int
	// Forward computes the activation for input in using parameters p
	// (length NumParams) and writes it to a fresh slice.
	Forward(p, in []float64) []float64
	// Backward computes gradients: given the forward input/output and
	// the loss gradient w.r.t. the output, it accumulates parameter
	// gradients into dp and returns the gradient w.r.t. the input.
	Backward(p, in, out, dout, dp []float64) []float64
	// Flops estimates the multiply-accumulate count of one forward
	// pass (used for simulated computation time).
	Flops() int
}

// Network is a feed-forward stack of layers over one flat parameter
// vector.
type Network struct {
	layers  []Layer
	offsets []int // offset of each layer's slice in params
	params  tensor.Vec
	inDim   int
	outDim  int
}

// NewNetwork stacks layers (validating dimension compatibility) and
// initializes parameters with He-uniform fan-in scaling from r.
func NewNetwork(r *rng.PCG, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: empty network")
	}
	total := 0
	offsets := make([]int, len(layers))
	for i, l := range layers {
		if i > 0 && layers[i-1].OutDim() != l.InDim() {
			return nil, fmt.Errorf("nn: layer %d (%s) wants input %d, previous (%s) outputs %d",
				i, l.Name(), l.InDim(), layers[i-1].Name(), layers[i-1].OutDim())
		}
		offsets[i] = total
		total += l.NumParams()
	}
	n := &Network{
		layers:  layers,
		offsets: offsets,
		params:  tensor.New(total),
		inDim:   layers[0].InDim(),
		outDim:  layers[len(layers)-1].OutDim(),
	}
	for i, l := range layers {
		if init, ok := l.(interface {
			Init(r *rng.PCG, p []float64)
		}); ok {
			init.Init(r, n.paramSlice(i))
		}
	}
	return n, nil
}

// MustNetwork is NewNetwork that panics on error.
func MustNetwork(r *rng.PCG, layers ...Layer) *Network {
	n, err := NewNetwork(r, layers...)
	if err != nil {
		panic(err)
	}
	return n
}

func (n *Network) paramSlice(i int) []float64 {
	return n.params[n.offsets[i] : n.offsets[i]+n.layers[i].NumParams()]
}

// NumParams returns the total parameter count D.
func (n *Network) NumParams() int { return len(n.params) }

// InDim returns the input width.
func (n *Network) InDim() int { return n.inDim }

// OutDim returns the output (logit) width.
func (n *Network) OutDim() int { return n.outDim }

// Params returns the live flat parameter vector. Mutating it updates
// the model — this is how the trainer applies synchronized updates.
func (n *Network) Params() tensor.Vec { return n.params }

// SetParams copies src into the model (dimension must match).
func (n *Network) SetParams(src tensor.Vec) {
	if len(src) != len(n.params) {
		panic(fmt.Sprintf("nn: SetParams dim %d, want %d", len(src), len(n.params)))
	}
	copy(n.params, src)
}

// Flops estimates multiply-accumulates of one forward pass.
func (n *Network) Flops() int {
	total := 0
	for _, l := range n.layers {
		total += l.Flops()
	}
	return total
}

// Forward computes the logits for a single input.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.inDim {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), n.inDim))
	}
	act := x
	for i, l := range n.layers {
		act = l.Forward(n.paramSlice(i), act)
	}
	return act
}

// Predict returns the argmax class of the logits for x.
func (n *Network) Predict(x []float64) int {
	return tensor.Argmax(n.Forward(x))
}

// LossGrad runs a forward/backward pass for one labelled sample,
// accumulating the parameter gradient of the softmax cross-entropy loss
// into grad (length NumParams) and returning the loss value. It is
// LossGradBatch with a batch of one.
func (n *Network) LossGrad(x []float64, label int, grad tensor.Vec) float64 {
	var loss [1]float64
	n.LossGradBatch([][]float64{x}, []int{label}, grad, loss[:])
	return loss[0]
}

// LossGradBatch runs the forward/backward pass of a batch of labelled
// samples, accumulating their parameter gradients of the softmax
// cross-entropy loss into grad (length NumParams) and writing sample b's
// loss to losses[b].
//
// It runs layer-major: every layer's forward pass for all samples, then
// every layer's backward pass for all samples. What it accumulates is bit
// for bit what calling LossGrad on each sample in order accumulates,
// because each gradient element still adds its samples' contributions in
// sample order: a layer writes only its own slice of grad, activations are
// per sample, and a layer's batch pass (Dense's) keeps that order inside
// every element. A layer without a batch pass runs its per-sample
// Forward/Backward over the batch in sample order. The first layer's input
// gradient is not computed where the layer can skip it.
func (n *Network) LossGradBatch(xs [][]float64, labels []int, grad tensor.Vec, losses []float64) {
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: grad dim %d, want %d", len(grad), len(n.params)))
	}
	if len(labels) != len(xs) || len(losses) != len(xs) {
		panic(fmt.Sprintf("nn: batch of %d samples with %d labels and %d losses", len(xs), len(labels), len(losses)))
	}
	for b, x := range xs {
		if len(x) != n.inDim {
			panic(fmt.Sprintf("nn: sample %d input dim %d, want %d", b, len(x), n.inDim))
		}
		if label := labels[b]; label < 0 || label >= n.outDim {
			panic(fmt.Sprintf("nn: sample %d label %d out of range [0,%d)", b, label, n.outDim))
		}
	}
	// Forward, keeping every layer's activations.
	acts := make([][][]float64, len(n.layers)+1)
	acts[0] = xs
	for i, l := range n.layers {
		acts[i+1] = forwardBatch(l, n.paramSlice(i), acts[i])
	}

	dout := make([][]float64, len(xs))
	for b, logits := range acts[len(n.layers)] {
		losses[b], dout[b] = SoftmaxCrossEntropy(logits, labels[b])
	}

	// Backward.
	for i := len(n.layers) - 1; i >= 0; i-- {
		l := n.layers[i]
		dp := grad[n.offsets[i] : n.offsets[i]+l.NumParams()]
		dout = backwardBatch(l, n.paramSlice(i), acts[i], acts[i+1], dout, dp, i > 0)
	}
}

// batchLayer is the optional batch form of a Layer: sample b of each
// result is what Forward/Backward return for sample b, and every element
// of dp adds its samples' contributions in sample order. backwardBatch
// may skip the input gradient (returning nil) when needIn is false.
type batchLayer interface {
	forwardBatch(p []float64, in [][]float64) [][]float64
	backwardBatch(p []float64, in, dout [][]float64, dp []float64, needIn bool) [][]float64
}

// forwardBatch runs l's forward pass over a batch.
func forwardBatch(l Layer, p []float64, in [][]float64) [][]float64 {
	if bl, ok := l.(batchLayer); ok {
		return bl.forwardBatch(p, in)
	}
	out := make([][]float64, len(in))
	for b, x := range in {
		out[b] = l.Forward(p, x)
	}
	return out
}

// backwardBatch runs l's backward pass over a batch, sample by sample in
// order unless l has a batch form.
func backwardBatch(l Layer, p []float64, in, out, dout [][]float64, dp []float64, needIn bool) [][]float64 {
	if bl, ok := l.(batchLayer); ok {
		return bl.backwardBatch(p, in, dout, dp, needIn)
	}
	din := make([][]float64, len(in))
	for b := range in {
		din[b] = l.Backward(p, in[b], out[b], dout[b], dp)
	}
	return din
}

// SoftmaxCrossEntropy returns the cross-entropy loss of logits against
// the label and the gradient w.r.t. the logits (softmax − one-hot),
// computed with the max-shift trick for stability.
func SoftmaxCrossEntropy(logits []float64, label int) (float64, []float64) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	probs := make([]float64, len(logits))
	for i, v := range logits {
		probs[i] = math.Exp(v - maxv)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	loss := -math.Log(math.Max(probs[label], 1e-300))
	grad := probs
	grad[label] -= 1
	return loss, grad
}
