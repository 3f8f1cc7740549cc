package nn

import (
	"fmt"
	"math"

	"marsit/internal/rng"
)

// ---------------------------------------------------------------------------
// Dense

// Dense is a fully connected layer: out = W·in + b, with W stored
// row-major ([out][in]) followed by b in the flat parameter slice.
type Dense struct {
	In, Out int
}

// NewDense returns a Dense layer mapping in → out.
func NewDense(in, out int) *Dense {
	if in < 1 || out < 1 {
		panic(fmt.Sprintf("nn: Dense(%d, %d)", in, out))
	}
	return &Dense{In: in, Out: out}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense%dx%d", d.In, d.Out) }

// NumParams implements Layer.
func (d *Dense) NumParams() int { return d.In*d.Out + d.Out }

// InDim implements Layer.
func (d *Dense) InDim() int { return d.In }

// OutDim implements Layer.
func (d *Dense) OutDim() int { return d.Out }

// Flops implements Layer.
func (d *Dense) Flops() int { return d.In * d.Out }

// Init applies He-uniform initialization: W ~ U(±√(6/fan_in)), b = 0.
func (d *Dense) Init(r *rng.PCG, p []float64) {
	bound := math.Sqrt(6.0 / float64(d.In))
	for i := 0; i < d.In*d.Out; i++ {
		p[i] = (2*r.Float64() - 1) * bound
	}
	for i := d.In * d.Out; i < len(p); i++ {
		p[i] = 0
	}
}

// Forward implements Layer.
func (d *Dense) Forward(p, in []float64) []float64 {
	return d.forwardBatch(p, [][]float64{in})[0]
}

// Backward implements Layer.
func (d *Dense) Backward(p, in, _, dout, dp []float64) []float64 {
	return d.backwardBatch(p, [][]float64{in}, [][]float64{dout}, dp, true)[0]
}

// batchWidth is how many samples a Dense pass over one weight row serves.
const batchWidth = 4

// perSample returns n fresh slices of width w carved from one allocation.
func perSample(n, w int) [][]float64 {
	buf := make([]float64, n*w)
	out := make([][]float64, n)
	for b := range out {
		out[b] = buf[b*w : (b+1)*w : (b+1)*w]
	}
	return out
}

// forwardBatch implements batchLayer: out[b][o] is the bias plus
// row[i]·in[b][i] summed in index order, in a per-sample accumulator, with
// four samples sharing each pass over the row.
func (d *Dense) forwardBatch(p []float64, in [][]float64) [][]float64 {
	out := perSample(len(in), d.Out)
	bias := p[d.In*d.Out:]
	for o := 0; o < d.Out; o++ {
		row := p[o*d.In : (o+1)*d.In]
		b := 0
		for ; b+batchWidth <= len(in); b += batchWidth {
			x0, x1, x2, x3 := in[b][:len(row)], in[b+1][:len(row)], in[b+2][:len(row)], in[b+3][:len(row)]
			s0, s1, s2, s3 := bias[o], bias[o], bias[o], bias[o]
			for i, w := range row {
				s0 += w * x0[i]
				s1 += w * x1[i]
				s2 += w * x2[i]
				s3 += w * x3[i]
			}
			out[b][o], out[b+1][o], out[b+2][o], out[b+3][o] = s0, s1, s2, s3
		}
		for ; b < len(in); b++ {
			x := in[b][:len(row)]
			s := bias[o]
			for i, w := range row {
				s += w * x[i]
			}
			out[b][o] = s
		}
	}
	return out
}

// backwardBatch implements batchLayer. Every parameter-gradient element
// adds its samples' products in sample order — dRow[i] + g₀·x₀[i] + g₁·x₁[i]
// + …, left to right — four samples to a pass over the row; each sample's
// input gradient adds its rows' products in row order, as the per-sample
// pass does, and is skipped when needIn is false.
func (d *Dense) backwardBatch(p []float64, in, dout [][]float64, dp []float64, needIn bool) [][]float64 {
	var din [][]float64
	if needIn {
		din = perSample(len(in), d.In)
	}
	dB := dp[d.In*d.Out:]
	for o := 0; o < d.Out; o++ {
		row := p[o*d.In : (o+1)*d.In]
		dRow := dp[o*d.In : (o+1)*d.In]
		b := 0
		for ; b+batchWidth <= len(in); b += batchWidth {
			g0, g1, g2, g3 := dout[b][o], dout[b+1][o], dout[b+2][o], dout[b+3][o]
			dB[o] += g0
			dB[o] += g1
			dB[o] += g2
			dB[o] += g3
			x0, x1, x2, x3 := in[b][:len(dRow)], in[b+1][:len(dRow)], in[b+2][:len(dRow)], in[b+3][:len(dRow)]
			for i := range dRow {
				s := dRow[i]
				s += g0 * x0[i]
				s += g1 * x1[i]
				s += g2 * x2[i]
				s += g3 * x3[i]
				dRow[i] = s
			}
			if needIn {
				d0, d1, d2, d3 := din[b][:len(row)], din[b+1][:len(row)], din[b+2][:len(row)], din[b+3][:len(row)]
				for i, w := range row {
					d0[i] += g0 * w
					d1[i] += g1 * w
					d2[i] += g2 * w
					d3[i] += g3 * w
				}
			}
		}
		for ; b < len(in); b++ {
			g := dout[b][o]
			dB[o] += g
			x := in[b][:len(dRow)]
			for i := range dRow {
				dRow[i] += g * x[i]
			}
			if needIn {
				dx := din[b][:len(row)]
				for i, w := range row {
					dx[i] += g * w
				}
			}
		}
	}
	return din
}

// ---------------------------------------------------------------------------
// ReLU

// ReLU is the element-wise rectifier.
type ReLU struct {
	Dim int
}

// NewReLU returns a ReLU over dim elements.
func NewReLU(dim int) *ReLU {
	if dim < 1 {
		panic("nn: ReLU dim < 1")
	}
	return &ReLU{Dim: dim}
}

// Name implements Layer.
func (l *ReLU) Name() string { return fmt.Sprintf("relu%d", l.Dim) }

// NumParams implements Layer.
func (l *ReLU) NumParams() int { return 0 }

// InDim implements Layer.
func (l *ReLU) InDim() int { return l.Dim }

// OutDim implements Layer.
func (l *ReLU) OutDim() int { return l.Dim }

// Flops implements Layer.
func (l *ReLU) Flops() int { return l.Dim }

// Forward implements Layer.
func (l *ReLU) Forward(_, in []float64) []float64 {
	out := make([]float64, len(in))
	for i, x := range in {
		if x > 0 {
			out[i] = x
		}
	}
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(_, in, _, dout, _ []float64) []float64 {
	din := make([]float64, len(in))
	for i, x := range in {
		if x > 0 {
			din[i] = dout[i]
		}
	}
	return din
}

// ---------------------------------------------------------------------------
// Tanh

// Tanh is the element-wise hyperbolic tangent.
type Tanh struct {
	Dim int
}

// NewTanh returns a Tanh over dim elements.
func NewTanh(dim int) *Tanh {
	if dim < 1 {
		panic("nn: Tanh dim < 1")
	}
	return &Tanh{Dim: dim}
}

// Name implements Layer.
func (l *Tanh) Name() string { return fmt.Sprintf("tanh%d", l.Dim) }

// NumParams implements Layer.
func (l *Tanh) NumParams() int { return 0 }

// InDim implements Layer.
func (l *Tanh) InDim() int { return l.Dim }

// OutDim implements Layer.
func (l *Tanh) OutDim() int { return l.Dim }

// Flops implements Layer.
func (l *Tanh) Flops() int { return 4 * l.Dim }

// Forward implements Layer.
func (l *Tanh) Forward(_, in []float64) []float64 {
	out := make([]float64, len(in))
	for i, x := range in {
		out[i] = math.Tanh(x)
	}
	return out
}

// Backward implements Layer.
func (l *Tanh) Backward(_, _, out, dout, _ []float64) []float64 {
	din := make([]float64, len(out))
	for i, y := range out {
		din[i] = dout[i] * (1 - y*y)
	}
	return din
}

// ---------------------------------------------------------------------------
// Conv2D

// Conv2D is a naive 2-D convolution over CHW-flattened inputs with
// square kernels, stride, and same-size zero padding disabled (valid
// convolution). Parameters are [outC][inC][k][k] weights then [outC]
// biases.
type Conv2D struct {
	InC, InH, InW int
	OutC, K       int
	Stride        int
}

// NewConv2D returns a valid (unpadded) convolution layer.
func NewConv2D(inC, inH, inW, outC, k, stride int) *Conv2D {
	c := &Conv2D{InC: inC, InH: inH, InW: inW, OutC: outC, K: k, Stride: stride}
	if inC < 1 || inH < 1 || inW < 1 || outC < 1 || k < 1 || stride < 1 {
		panic("nn: Conv2D non-positive shape")
	}
	if c.outH() < 1 || c.outW() < 1 {
		panic(fmt.Sprintf("nn: Conv2D kernel %d too large for %dx%d", k, inH, inW))
	}
	return c
}

func (c *Conv2D) outH() int { return (c.InH-c.K)/c.Stride + 1 }
func (c *Conv2D) outW() int { return (c.InW-c.K)/c.Stride + 1 }

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%dx%d-%dk%ds%d", c.InC, c.InH, c.InW, c.OutC, c.K, c.Stride)
}

// NumParams implements Layer.
func (c *Conv2D) NumParams() int { return c.OutC*c.InC*c.K*c.K + c.OutC }

// InDim implements Layer.
func (c *Conv2D) InDim() int { return c.InC * c.InH * c.InW }

// OutDim implements Layer.
func (c *Conv2D) OutDim() int { return c.OutC * c.outH() * c.outW() }

// Flops implements Layer.
func (c *Conv2D) Flops() int { return c.OutC * c.outH() * c.outW() * c.InC * c.K * c.K }

// Init applies He-uniform initialization over the kernel fan-in.
func (c *Conv2D) Init(r *rng.PCG, p []float64) {
	fanIn := float64(c.InC * c.K * c.K)
	bound := math.Sqrt(6.0 / fanIn)
	nw := c.OutC * c.InC * c.K * c.K
	for i := 0; i < nw; i++ {
		p[i] = (2*r.Float64() - 1) * bound
	}
	for i := nw; i < len(p); i++ {
		p[i] = 0
	}
}

func (c *Conv2D) wIdx(oc, ic, kr, kc int) int {
	return ((oc*c.InC+ic)*c.K+kr)*c.K + kc
}

// Forward implements Layer.
func (c *Conv2D) Forward(p, in []float64) []float64 {
	oh, ow := c.outH(), c.outW()
	out := make([]float64, c.OutC*oh*ow)
	bias := p[c.OutC*c.InC*c.K*c.K:]
	for oc := 0; oc < c.OutC; oc++ {
		for r := 0; r < oh; r++ {
			for cc := 0; cc < ow; cc++ {
				s := bias[oc]
				r0, c0 := r*c.Stride, cc*c.Stride
				for ic := 0; ic < c.InC; ic++ {
					for kr := 0; kr < c.K; kr++ {
						inRow := in[(ic*c.InH+(r0+kr))*c.InW+c0:]
						w := p[c.wIdx(oc, ic, kr, 0):]
						for kc := 0; kc < c.K; kc++ {
							s += w[kc] * inRow[kc]
						}
					}
				}
				out[(oc*oh+r)*ow+cc] = s
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(p, in, _, dout, dp []float64) []float64 {
	oh, ow := c.outH(), c.outW()
	din := make([]float64, len(in))
	dBias := dp[c.OutC*c.InC*c.K*c.K:]
	for oc := 0; oc < c.OutC; oc++ {
		for r := 0; r < oh; r++ {
			for cc := 0; cc < ow; cc++ {
				g := dout[(oc*oh+r)*ow+cc]
				if g == 0 {
					continue
				}
				dBias[oc] += g
				r0, c0 := r*c.Stride, cc*c.Stride
				for ic := 0; ic < c.InC; ic++ {
					for kr := 0; kr < c.K; kr++ {
						base := (ic*c.InH + (r0 + kr)) * c.InW
						w := p[c.wIdx(oc, ic, kr, 0):]
						dw := dp[c.wIdx(oc, ic, kr, 0):]
						for kc := 0; kc < c.K; kc++ {
							dw[kc] += g * in[base+c0+kc]
							din[base+c0+kc] += g * w[kc]
						}
					}
				}
			}
		}
	}
	return din
}

// ---------------------------------------------------------------------------
// Residual block

// Residual is a two-dense residual block: out = in + W2·relu(W1·in+b1)+b2,
// the building pattern of the paper's ResNet models. Input and output
// widths are equal.
type Residual struct {
	Dim, Hidden int
	fc1, fc2    *Dense
}

// NewResidual builds a residual block of the given width.
func NewResidual(dim, hidden int) *Residual {
	if dim < 1 || hidden < 1 {
		panic("nn: Residual non-positive dims")
	}
	return &Residual{Dim: dim, Hidden: hidden, fc1: NewDense(dim, hidden), fc2: NewDense(hidden, dim)}
}

// Name implements Layer.
func (l *Residual) Name() string { return fmt.Sprintf("res%d-%d", l.Dim, l.Hidden) }

// NumParams implements Layer.
func (l *Residual) NumParams() int { return l.fc1.NumParams() + l.fc2.NumParams() }

// InDim implements Layer.
func (l *Residual) InDim() int { return l.Dim }

// OutDim implements Layer.
func (l *Residual) OutDim() int { return l.Dim }

// Flops implements Layer.
func (l *Residual) Flops() int { return l.fc1.Flops() + l.fc2.Flops() + l.Hidden }

// Init initializes fc1 with He-uniform scaling and fc2 with zeros
// ("zero-init residual"): each block starts as the identity, so
// activations do not grow with depth and deep stacks train stably.
func (l *Residual) Init(r *rng.PCG, p []float64) {
	l.fc1.Init(r, p[:l.fc1.NumParams()])
	for i := l.fc1.NumParams(); i < len(p); i++ {
		p[i] = 0
	}
}

// Forward implements Layer.
func (l *Residual) Forward(p, in []float64) []float64 {
	p1 := p[:l.fc1.NumParams()]
	p2 := p[l.fc1.NumParams():]
	h := l.fc1.Forward(p1, in)
	for i, x := range h {
		if x < 0 {
			h[i] = 0
		}
	}
	out := l.fc2.Forward(p2, h)
	for i := range out {
		out[i] += in[i]
	}
	return out
}

// Backward implements Layer.
func (l *Residual) Backward(p, in, _, dout, dp []float64) []float64 {
	p1 := p[:l.fc1.NumParams()]
	p2 := p[l.fc1.NumParams():]
	dp1 := dp[:l.fc1.NumParams()]
	dp2 := dp[l.fc1.NumParams():]

	// Recompute the hidden activation (cheap, avoids caching plumbing).
	pre := l.fc1.Forward(p1, in)
	h := make([]float64, len(pre))
	for i, x := range pre {
		if x > 0 {
			h[i] = x
		}
	}
	// Branch gradient.
	dh := l.fc2.Backward(p2, h, nil, dout, dp2)
	for i, x := range pre {
		if x <= 0 {
			dh[i] = 0
		}
	}
	din := l.fc1.Backward(p1, in, nil, dh, dp1)
	// Skip connection.
	for i := range din {
		din[i] += dout[i]
	}
	return din
}
