package optim

import (
	"math"
	"testing"

	"marsit/internal/tensor"
)

func TestSGDStep(t *testing.T) {
	o := NewSGD(0.1)
	p := tensor.Vec{1, 2}
	o.Step(p, tensor.Vec{10, -10})
	if p[0] != 0 || p[1] != 3 {
		t.Fatalf("SGD step: %v", p)
	}
	if o.Name() != "sgd" || o.LR() != 0.1 {
		t.Fatal("metadata")
	}
	o.SetLR(0.5)
	if o.LR() != 0.5 {
		t.Fatal("SetLR")
	}
}

func TestSGDValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSGD(0)
}

func TestMomentumAccumulates(t *testing.T) {
	o := NewMomentum(1.0, 0.5, 1)
	p := tensor.Vec{0}
	g := tensor.Vec{1}
	o.Step(p, g) // v=1, p=-1
	o.Step(p, g) // v=1.5, p=-2.5
	if math.Abs(p[0]+2.5) > 1e-12 {
		t.Fatalf("momentum trajectory: %v", p[0])
	}
}

func TestMomentumValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMomentum(0, 0.9, 1) },
		func() { NewMomentum(0.1, 1.0, 1) },
		func() { NewMomentum(0.1, -0.1, 1) },
		func() { NewMomentum(0.1, 0.9, 1).Step(tensor.Vec{1, 2}, tensor.Vec{1, 2}) },
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

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the first Adam step is ≈ lr·sign(g).
	o := NewAdam(0.1, 2)
	p := tensor.Vec{0, 0}
	o.Step(p, tensor.Vec{3, -7})
	if math.Abs(p[0]+0.1) > 1e-6 || math.Abs(p[1]-0.1) > 1e-6 {
		t.Fatalf("first Adam step: %v", p)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = x² from x = 5.
	o := NewAdam(0.3, 1)
	p := tensor.Vec{5}
	for i := 0; i < 200; i++ {
		o.Step(p, tensor.Vec{2 * p[0]})
	}
	if math.Abs(p[0]) > 0.1 {
		t.Fatalf("Adam did not converge: x = %v", p[0])
	}
}

func TestOptimizersDescendQuadratic(t *testing.T) {
	for _, o := range []Optimizer{NewSGD(0.1), NewMomentum(0.05, 0.9, 1), NewAdam(0.2, 1)} {
		p := tensor.Vec{4}
		f := func() float64 { return p[0] * p[0] }
		before := f()
		for i := 0; i < 100; i++ {
			o.Step(p, tensor.Vec{2 * p[0]})
		}
		if f() >= before/10 {
			t.Fatalf("%s did not descend: %v → %v", o.Name(), before, f())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sgd", "momentum", "adam"} {
		o, err := ByName(name, 0.1, 4)
		if err != nil || o.Name() != name {
			t.Fatalf("ByName(%q): %v %v", name, o, err)
		}
	}
	if _, err := ByName("lamb", 0.1, 4); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}

func TestAdamDimMismatchPanics(t *testing.T) {
	o := NewAdam(0.1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	o.Step(tensor.Vec{1}, tensor.Vec{1})
}

// stepRef is each optimizer's Step as it stood before it split into
// Begin and StepRange, kept verbatim as the reference of the split.
func stepRef(o Optimizer, params, g tensor.Vec) {
	switch o := o.(type) {
	case *SGD:
		tensor.Axpy(params, -o.lr, g)
	case *Momentum:
		for i := range o.v {
			o.v[i] = o.mu*o.v[i] + g[i]
			params[i] -= o.lr * o.v[i]
		}
	case *Adam:
		o.t++
		c1 := 1 - math.Pow(o.b1, float64(o.t))
		c2 := 1 - math.Pow(o.b2, float64(o.t))
		for i := range o.m {
			o.m[i] = o.b1*o.m[i] + (1-o.b1)*g[i]
			o.v[i] = o.b2*o.v[i] + (1-o.b2)*g[i]*g[i]
			mHat := o.m[i] / c1
			vHat := o.v[i] / c2
			params[i] -= o.lr * mHat / (math.Sqrt(vHat) + o.eps)
		}
	}
}

// TestStepRangeMatchesStep runs every optimizer for several steps split
// into the ranges of tensor.Partition and of PartitionAligned(·, ·, 64) —
// one Begin, then StepRange per range — and requires its parameters and
// state to match the unsplit reference step bit for bit, and Step to
// match it too. Lengths cover a partial last word and fewer words than
// ranges; updates carry −0, ±Inf and NaN, and the learning rate changes
// between steps.
func TestStepRangeMatchesStep(t *testing.T) {
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0, 5e-324}
	same := func(a, b tensor.Vec) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, name := range []string{"sgd", "momentum", "adam"} {
		for _, d := range []int{1, 63, 130, 1001} {
			for _, parts := range []int{1, 2, 3, 8} {
				for _, aligned := range []bool{false, true} {
					segs := tensor.Partition(d, parts)
					if aligned {
						segs = tensor.PartitionAligned(d, parts, 64)
					}
					split, _ := ByName(name, 0.1, d)
					ref, _ := ByName(name, 0.1, d)
					whole, _ := ByName(name, 0.1, d)
					pSplit, pRef, pWhole := tensor.New(d), tensor.New(d), tensor.New(d)
					for i := range pRef {
						x := math.Sin(float64(i + d))
						pSplit[i], pRef[i], pWhole[i] = x, x, x
					}
					for step := 0; step < 4; step++ {
						g := tensor.New(d)
						for i := range g {
							g[i] = math.Cos(float64(i*7 + step))
							if (i+step)%11 == 0 {
								g[i] = special[(i+step)%len(special)]
							}
						}
						split.Begin()
						for _, s := range segs {
							split.StepRange(pSplit, g, s.Lo, s.Hi)
						}
						stepRef(ref, pRef, g)
						whole.Step(pWhole, g)
						if !same(pSplit, pRef) || !same(pWhole, pRef) {
							t.Fatalf("%s, D %d, %d ranges (aligned %v), step %d: parameters differ from the unsplit step",
								name, d, parts, aligned, step)
						}
						for _, o := range []Optimizer{split, ref, whole} {
							o.SetLR(o.LR() * 0.5)
						}
					}
					switch s := split.(type) {
					case *Momentum:
						if !same(s.v, ref.(*Momentum).v) {
							t.Fatalf("momentum, D %d, %d ranges: velocity differs", d, parts)
						}
					case *Adam:
						r := ref.(*Adam)
						if !same(s.m, r.m) || !same(s.v, r.v) || s.t != r.t {
							t.Fatalf("adam, D %d, %d ranges: moments or step count differ", d, parts)
						}
					}
				}
			}
		}
	}
}
