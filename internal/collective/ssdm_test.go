package collective

import (
	"math"
	"testing"

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
	}
}

func BenchmarkSSDMSignsInto(b *testing.B) {
	v := rng.New(5).NormVec(make([]float64, 100_000), 0, 1)
	dst := make([]float64, len(v))
	r := rng.New(6)
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
