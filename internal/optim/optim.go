// Package optim provides the first-order optimizers the paper's
// experiments use: plain SGD, momentum SGD (image classification) and
// Adam (sentiment analysis). Optimizers operate in place on a flat
// parameter vector given a flat update direction; in distributed runs
// every worker holds identical optimizer state because the synchronized
// update is identical, preserving the consensus invariant.
package optim

import (
	"fmt"
	"math"

	"marsit/internal/tensor"
)

// Optimizer applies an update direction g (a gradient or a synchronized
// global update) to params in place.
//
// A step splits into a once-per-step part, Begin, and an element-wise
// part, StepRange, so that disjoint element ranges of one step can run on
// lanes (tensor.ForLanes): Step is Begin followed by StepRange over every
// element, and any split of [0, len(params)) into ranges after one Begin
// gives the same parameters bit for bit.
type Optimizer interface {
	// Name identifies the optimizer in reports.
	Name() string
	// Step applies one update. g is not modified.
	Step(params, g tensor.Vec)
	// Begin opens a step: it advances what is shared by every element
	// (Adam's counter and bias corrections) and nothing else.
	Begin()
	// StepRange applies the step that Begin opened to elements [lo, hi)
	// of params, reading the same range of g and of the optimizer's own
	// state. Calls on disjoint ranges touch disjoint memory.
	StepRange(params, g tensor.Vec, lo, hi int)
	// SetLR changes the learning rate (for decay schedules).
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
}

// SGD is vanilla stochastic gradient descent: p ← p − lr·g.
type SGD struct {
	lr float64
}

// NewSGD returns plain SGD with the given learning rate.
func NewSGD(lr float64) *SGD {
	if lr <= 0 {
		panic("optim: non-positive learning rate")
	}
	return &SGD{lr: lr}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Step implements Optimizer.
func (s *SGD) Step(params, g tensor.Vec) {
	tensor.Axpy(params, -s.lr, g)
}

// Begin implements Optimizer; plain SGD keeps no per-step state.
func (s *SGD) Begin() {}

// StepRange implements Optimizer.
func (s *SGD) StepRange(params, g tensor.Vec, lo, hi int) {
	tensor.Axpy(params[lo:hi], -s.lr, g[lo:hi])
}

// Momentum is heavy-ball SGD: v ← µ·v + g; p ← p − lr·v.
type Momentum struct {
	lr, mu float64
	v      tensor.Vec
}

// NewMomentum returns momentum SGD over dim parameters.
func NewMomentum(lr, mu float64, dim int) *Momentum {
	if lr <= 0 || mu < 0 || mu >= 1 {
		panic(fmt.Sprintf("optim: bad momentum config lr=%v mu=%v", lr, mu))
	}
	return &Momentum{lr: lr, mu: mu, v: tensor.New(dim)}
}

// Name implements Optimizer.
func (m *Momentum) Name() string { return "momentum" }

// LR implements Optimizer.
func (m *Momentum) LR() float64 { return m.lr }

// SetLR implements Optimizer.
func (m *Momentum) SetLR(lr float64) { m.lr = lr }

// Step implements Optimizer.
func (m *Momentum) Step(params, g tensor.Vec) {
	if len(g) != len(m.v) {
		panic(fmt.Sprintf("optim: momentum dim %d, got %d", len(m.v), len(g)))
	}
	m.StepRange(params, g, 0, len(g))
}

// Begin implements Optimizer; momentum keeps no per-step state.
func (m *Momentum) Begin() {}

// StepRange implements Optimizer.
func (m *Momentum) StepRange(params, g tensor.Vec, lo, hi int) {
	v, g, params := m.v[lo:hi], g[lo:hi], params[lo:hi]
	for i := range v {
		v[i] = m.mu*v[i] + g[i]
		params[i] -= m.lr * v[i]
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	lr, b1, b2, eps float64
	m, v            tensor.Vec
	t               int
	// c1 and c2 are step t's bias corrections 1 − β1ᵗ and 1 − β2ᵗ.
	c1, c2 float64
}

// NewAdam returns Adam with the canonical defaults β1=0.9, β2=0.999,
// ε=1e-8 over dim parameters.
func NewAdam(lr float64, dim int) *Adam {
	if lr <= 0 {
		panic("optim: non-positive learning rate")
	}
	return &Adam{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8, m: tensor.New(dim), v: tensor.New(dim)}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Step implements Optimizer.
func (a *Adam) Step(params, g tensor.Vec) {
	if len(g) != len(a.m) {
		panic(fmt.Sprintf("optim: adam dim %d, got %d", len(a.m), len(g)))
	}
	a.Begin()
	a.StepRange(params, g, 0, len(g))
}

// Begin implements Optimizer: it advances the step counter and the bias
// corrections.
func (a *Adam) Begin() {
	a.t++
	a.c1 = 1 - math.Pow(a.b1, float64(a.t))
	a.c2 = 1 - math.Pow(a.b2, float64(a.t))
}

// StepRange implements Optimizer.
func (a *Adam) StepRange(params, g tensor.Vec, lo, hi int) {
	m, v, g, params := a.m[lo:hi], a.v[lo:hi], g[lo:hi], params[lo:hi]
	c1, c2 := a.c1, a.c2
	for i := range m {
		m[i] = a.b1*m[i] + (1-a.b1)*g[i]
		v[i] = a.b2*v[i] + (1-a.b2)*g[i]*g[i]
		mHat := m[i] / c1
		vHat := v[i] / c2
		params[i] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
	}
}

// ByName constructs an optimizer from its report name. lr is the
// learning rate, dim the parameter count.
func ByName(name string, lr float64, dim int) (Optimizer, error) {
	switch name {
	case "sgd":
		return NewSGD(lr), nil
	case "momentum":
		return NewMomentum(lr, 0.9, dim), nil
	case "adam":
		return NewAdam(lr, dim), nil
	default:
		return nil, fmt.Errorf("optim: unknown optimizer %q", name)
	}
}
