package collective

import (
	"math"
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// ssdmSignsBranching is the SSDM compressor as it stood with the sign
// flip on a branch, kept verbatim as the oracle.
func ssdmSignsBranching(dst []float64, v tensor.Vec, r *rng.PCG) float64 {
	norm := tensor.Norm2(v)
	for i, x := range v {
		pKeep := 0.5
		if norm > 0 {
			pKeep = 0.5 + math.Abs(x)/(2*norm)
		}
		s := tensor.Sign(x)
		if !r.Bernoulli(pKeep) {
			s = -s
		}
		dst[i] = s
	}
	return norm
}

// TestSSDMSignsIntoMatchesBranching pins the branch-free sign flip to
// the branching form: same signs bit for bit, same norm, and the stream
// left at the same position — including inputs whose keep probability is
// exactly 1 (no draw), NaN (always flipped) or 1/2 (zero norm), and the
// ±0 elements whose sign follows x < 0, not the IEEE sign bit. The
// integer-vote form, SSDMVotesInto, is held to the same oracle on a
// third copy of the stream.
func TestSSDMSignsIntoMatchesBranching(t *testing.T) {
	src := rng.New(77)
	cases := map[string]tensor.Vec{
		"empty":      {},
		"gaussian":   src.NormVec(make([]float64, 1000), 0, 1),
		"zeros":      {0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		"one-hot":    {0, 0, -3, 0, math.Copysign(0, -1)},
		"with-zeros": {0, 1.5, math.Copysign(0, -1), -2.5, 0, 1e-300, -1e-300},
		"nan":        {1, math.NaN(), -1, math.Copysign(math.NaN(), -1), 0},
		"inf":        {1, math.Inf(1), -1, math.Inf(-1), math.Copysign(0, -1)},
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				fast, ints, ref := rng.NewStream(seed, 2), rng.NewStream(seed, 2), rng.NewStream(seed, 2)
				got, want := make([]float64, len(v)), make([]float64, len(v))
				votes := make([]int64, len(v))
				gotNorm := SSDMSignsInto(got, v, fast)
				votesNorm := SSDMVotesInto(votes, v, ints)
				wantNorm := ssdmSignsBranching(want, v, ref)
				if math.Float64bits(gotNorm) != math.Float64bits(wantNorm) || math.Float64bits(votesNorm) != math.Float64bits(wantNorm) {
					t.Fatalf("%s seed %d: norm %v, as votes %v, branching form %v", name, seed, gotNorm, votesNorm, wantNorm)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s seed %d: sign[%d] of %v = %v, branching form %v", name, seed, i, v[i], got[i], want[i])
					}
					if votes[i] != int64(want[i]) {
						t.Fatalf("%s seed %d: vote[%d] of %v = %d, branching form %v", name, seed, i, v[i], votes[i], want[i])
					}
				}
				w := ref.Uint64()
				if g, gv := fast.Uint64(), ints.Uint64(); g != w || gv != w {
					t.Fatalf("%s seed %d: stream left at %#x, as votes at %#x, branching form leaves it at %#x", name, seed, g, gv, w)
				}
			}
		})
	}
}

// ssdmFuzzInput builds an SSDM input of length n from seed: Gaussians
// with, by pattern, nothing else (0), one nonzero element (1, the keep
// probability 1 that takes no draw), only ±0 (2, a zero norm), NaN of
// both signs (3), ±Inf (4, a NaN keep probability) or all of those
// scattered (5).
func ssdmFuzzInput(seed uint64, n int, pattern uint8) tensor.Vec {
	r := rng.New(seed)
	v := r.NormVec(make([]float64, n), 0, 1)
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1), 1e-300}
	switch pattern % 6 {
	case 1:
		if n > 0 {
			hot := r.Intn(n)
			x := v[hot]
			clear(v)
			v[hot] = x
		}
	case 2:
		for i := range v {
			v[i] = edges[r.Intn(2)]
		}
	case 3, 4:
		for i := range v {
			if r.Intn(9) == 0 {
				v[i] = edges[2*int(pattern%6)-4+r.Intn(2)]
			}
		}
	case 5:
		for i := range v {
			if r.Intn(4) == 0 {
				v[i] = edges[r.Intn(len(edges))]
			}
		}
	}
	return v
}

// FuzzSSDMBitsAgainstScalar holds the word kernel behind SSDMBitsInto,
// SSDMSignsInto and SSDMVotesInto to the per-element oracle: the same
// norm bit for bit, the same signs (bit i set exactly where the oracle
// writes +1) and the stream left at the same position, on lengths around
// the 64-lane word and every edge pattern of ssdmFuzzInput.
func FuzzSSDMBitsAgainstScalar(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		for pattern := uint8(0); pattern < 6; pattern++ {
			f.Add(uint64(n)*6+uint64(pattern), uint16(n), pattern)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, pattern uint8) {
		n := int(nRaw) % 300
		v := ssdmFuzzInput(seed, n, pattern)
		fast, floats, ints, ref := rng.NewStream(seed, 9), rng.NewStream(seed, 9), rng.NewStream(seed, 9), rng.NewStream(seed, 9)
		bits := bitvec.New(n)
		signs, votes, want := make([]float64, n), make([]int64, n), make([]float64, n)
		norm := SSDMBitsInto(bits, v, fast)
		floatNorm := SSDMSignsInto(signs, v, floats)
		intNorm := SSDMVotesInto(votes, v, ints)
		wantNorm := ssdmSignsBranching(want, v, ref)
		for _, got := range []float64{norm, floatNorm, intNorm} {
			if math.Float64bits(got) != math.Float64bits(wantNorm) {
				t.Fatalf("n=%d pattern %d: norm %v, oracle %v", n, pattern, got, wantNorm)
			}
		}
		wantBits := bitvec.New(n)
		for i, w := range want {
			wantBits.Set(i, w > 0)
			if math.Float64bits(signs[i]) != math.Float64bits(w) || float64(votes[i]) != w {
				t.Fatalf("n=%d pattern %d: sign[%d] of %v: float %v, vote %d; oracle %v", n, pattern, i, v[i], signs[i], votes[i], w)
			}
		}
		// Equal compares whole words: a bit set past the length fails too.
		if !bits.Equal(wantBits) {
			t.Fatalf("n=%d pattern %d: bits %v, oracle %v", n, pattern, bits, wantBits)
		}
		w := ref.Uint64()
		for name, r := range map[string]*rng.PCG{"bits": fast, "floats": floats, "votes": ints} {
			if got := r.Uint64(); got != w {
				t.Fatalf("n=%d pattern %d: %s form leaves the stream at %#x, oracle at %#x", n, pattern, name, got, w)
			}
		}
	})
}

// TestSSDMUnbiased is the key property from the appendix: E[Q(g)] = g,
// where Q(g) is the ℓ2 norm times the stochastic sign vector.
func TestSSDMUnbiased(t *testing.T) {
	r := rng.New(42)
	g := tensor.Vec{0.8, -0.3, 0.1, -0.05, 0.4}
	const trials = 40000
	acc := make(tensor.Vec, len(g))
	signs := make([]float64, len(g))
	for i := 0; i < trials; i++ {
		norm := SSDMSignsInto(signs, g, r)
		tensor.Axpy(acc, norm, signs)
	}
	tensor.Scale(acc, 1.0/trials)
	for i := range g {
		if math.Abs(acc[i]-g[i]) > 0.02 {
			t.Fatalf("E[Q(g)][%d] = %v, want %v", i, acc[i], g[i])
		}
	}
}

// TestSSDMZeroVector: a zero vector has norm 0, so whatever signs the
// coin tosses pick, the reconstruction norm·sign is exactly zero.
func TestSSDMZeroVector(t *testing.T) {
	r := rng.New(7)
	g := make(tensor.Vec, 8)
	signs := make([]float64, len(g))
	norm := SSDMSignsInto(signs, g, r)
	if norm != 0 {
		t.Fatalf("norm of zero vec = %v", norm)
	}
	for i, s := range signs {
		if s != 1 && s != -1 {
			t.Fatalf("sign[%d] = %v, want ±1", i, s)
		}
		if norm*s != 0 {
			t.Fatalf("zero vector reconstructed to %v at %d", norm*s, i)
		}
	}
}

// TestSSDMKeepProbability: a dominant coordinate should almost always
// keep its sign — p = 1/2 + |g_i|/(2‖g‖) → 1 when the element carries
// all the mass.
func TestSSDMKeepProbability(t *testing.T) {
	r := rng.New(9)
	g := tensor.Vec{5, 0.0001}
	signs := make([]float64, len(g))
	kept := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		SSDMSignsInto(signs, g, r)
		if signs[0] == 1 {
			kept++
		}
	}
	if float64(kept)/trials < 0.99 {
		t.Fatalf("dominant coordinate kept only %d/%d", kept, trials)
	}
}

func BenchmarkSSDMSignsInto(b *testing.B) {
	v := rng.New(5).NormVec(make([]float64, 100_000), 0, 1)
	dst := make([]float64, len(v))
	r := rng.New(6)
	bits := bitvec.New(len(v))
	b.Run("bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SSDMBitsInto(bits, v, r)
		}
	})
	b.Run("branch-free", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SSDMSignsInto(dst, v, r)
		}
	})
	b.Run("branching", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssdmSignsBranching(dst, v, r)
		}
	})
}
