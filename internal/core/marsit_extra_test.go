package core

import (
	"math"
	"testing"

	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// TestTorusOneBitWireCost: the TAR one-bit sync runs full-precision
// TAR's schedule — row reduce-scatter, a column ring over the owned row
// segment only, row all-gather — at one bit per element where TAR
// charges four bytes. At 4×4 and D = 4096 every segment is whole bytes,
// so the one-bit round moves exactly 1/32 of TAR's bytes.
func TestTorusOneBitWireCost(t *testing.T) {
	tor := topology.NewTorus(4, 4)
	const d = 4096
	m := MustNew(Config{Workers: 16, Dim: d, K: 0, GlobalLR: 0.1, Torus: tor, Seed: 1})
	c := cluster(16)
	m.Sync(c, randGrads(rng.New(1), 16, d))
	oneBit := c.TotalBytes()

	mFull := MustNew(Config{Workers: 16, Dim: d, K: 1, GlobalLR: 0.1, Torus: tor, Seed: 1})
	cFull := cluster(16)
	mFull.Sync(cFull, randGrads(rng.New(1), 16, d))
	full := cFull.TotalBytes()

	if oneBit*32 != full {
		t.Fatalf("torus one-bit %d B × 32 = %d B, full-precision TAR %d B", oneBit, oneBit*32, full)
	}
}

// TestDisableCompensation: the ablation flag keeps c_t at zero while
// still producing one-bit updates.
func TestDisableCompensation(t *testing.T) {
	m := MustNew(Config{
		Workers: 3, Dim: 8, K: 0, GlobalLR: 0.05, Seed: 2,
		DisableCompensation: true,
	})
	r := rng.New(5)
	for round := 0; round < 4; round++ {
		gt := m.Sync(cluster(3), randGrads(r, 3, 8))
		for _, x := range gt {
			if math.Abs(math.Abs(x)-0.05) > 1e-15 {
				t.Fatal("not one-bit")
			}
		}
		for w := 0; w < 3; w++ {
			if tensor.Norm2(m.Compensation(w)) != 0 {
				t.Fatal("compensation accumulated despite ablation")
			}
		}
	}
}

// TestMeanCompensationMatchesPerWorker: c̄ is the average of the
// per-worker vectors.
func TestMeanCompensation(t *testing.T) {
	const n, d = 3, 6
	m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 0.1, Seed: 3})
	m.Sync(cluster(n), randGrads(rng.New(7), n, d))
	want := tensor.New(d)
	for w := 0; w < n; w++ {
		tensor.Add(want, m.Compensation(w))
	}
	tensor.Scale(want, 1.0/n)
	if tensor.Dist2(want, m.MeanCompensation()) > 1e-12 {
		t.Fatal("MeanCompensation mismatch")
	}
}

// TestNonSquareTorusOneBit: rectangular tori (including single-row and
// single-column) produce valid one-bit consensus.
func TestNonSquareTorusOneBit(t *testing.T) {
	for _, shape := range [][2]int{{1, 4}, {4, 1}, {2, 3}, {3, 2}} {
		tor := topology.NewTorus(shape[0], shape[1])
		n := tor.Size()
		m := MustNew(Config{Workers: n, Dim: 16, K: 0, GlobalLR: 0.1, Torus: tor, Seed: 4})
		gt := m.Sync(cluster(n), randGrads(rng.New(9), n, 16))
		for _, x := range gt {
			if math.Abs(math.Abs(x)-0.1) > 1e-15 {
				t.Fatalf("torus %v: non-one-bit update %v", shape, x)
			}
		}
	}
}

// TestUnanimousSignsDeterministic: when every worker agrees on every
// sign, the one-bit aggregate is exactly that sign — no randomness can
// flip unanimity (the AND/OR structure of ⊙).
func TestUnanimousSignsDeterministic(t *testing.T) {
	const n, d = 5, 32
	for trial := 0; trial < 20; trial++ {
		m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 1, Seed: uint64(trial)})
		grads := make([]tensor.Vec, n)
		for w := range grads {
			grads[w] = make(tensor.Vec, d)
			for i := range grads[w] {
				if i%2 == 0 {
					grads[w][i] = 0.5
				} else {
					grads[w][i] = -0.5
				}
			}
		}
		gt := m.Sync(cluster(n), grads)
		for i, x := range gt {
			want := 1.0
			if i%2 == 1 {
				want = -1
			}
			if x != want {
				t.Fatalf("trial %d: unanimous sign flipped at %d: %v", trial, i, x)
			}
		}
	}
}

// TestFullPrecisionKeepsTheoremInvariantAcrossBoundary runs across a
// K boundary to make sure the compensation reset does not break the
// consensus property.
func TestConsensusAcrossKBoundary(t *testing.T) {
	const n, d = 4, 16
	m := MustNew(Config{Workers: n, Dim: d, K: 2, GlobalLR: 0.05, Seed: 11})
	r := rng.New(13)
	x := make([]tensor.Vec, n)
	for w := range x {
		x[w] = tensor.New(d) // identical initial models
	}
	for round := 0; round < 6; round++ {
		gt := m.Sync(cluster(n), randGrads(r, n, d))
		for w := range x {
			tensor.Sub(x[w], gt)
		}
		for w := 1; w < n; w++ {
			if tensor.Dist2(x[0], x[w]) != 0 {
				t.Fatalf("round %d: models diverged", round)
			}
		}
	}
}
