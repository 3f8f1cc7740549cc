package rng

import (
	"math"
	"testing"
)

// TestJumpMatchesSteps checks the jump constants against the generator
// itself: for any state and stream, the state k steps ahead computed as
// jumpMul[k]·s + jumpAdd[k]·inc is the state k calls of step reach.
func TestJumpMatchesSteps(t *testing.T) {
	src := New(128)
	for trial := 0; trial < 64; trial++ {
		p := &PCG{state: src.Uint64(), inc: src.Uint64() | 1}
		s, inc := p.state, p.inc
		for k := range jumpMul {
			if got := jumpMul[k]*s + jumpAdd[k]*inc; got != p.state {
				t.Fatalf("state %#x inc %#x: jump by %d reaches %#x, %d steps reach %#x", s, inc, k, got, k, p.state)
			}
			p.step()
		}
	}
}

// TestHighHalfDecision checks the rule that lets a lane skip its low
// output: belowByHigh, with belowByLow on a tie, decides exactly as the
// full 53-bit compare (hi<<32|lo)>>11 < t. The two can only part where
// hi<<21 meets t's high part, so every threshold is probed there and one
// step either side, with low outputs around the 11 bits the draw drops.
func TestHighHalfDecision(t *testing.T) {
	thresholds := []uint64{1, 1 << 21, 1<<53 - 1, 1 << 53}
	for a := 1; a <= 64; a++ {
		for b := 1; b <= 64; b++ {
			thresholds = append(thresholds, BernoulliThreshold(float64(b)/float64(a+b)))
		}
	}
	ties := 0
	for _, thr := range thresholds {
		for _, hi64 := range []uint64{thr>>21 - 1, thr >> 21, thr>>21 + 1} {
			if hi64 > math.MaxUint32 { // thr < 2²¹ has no step below, 2⁵³ none at or above
				continue
			}
			hi := uint32(hi64)
			for _, lo := range []uint32{0, 1<<11 - 1, 1 << 11, math.MaxUint32, uint32(thr&lowBits) << 11, uint32(thr&lowBits)<<11 - 1} {
				below, tie := belowByHigh(hi, thr)
				if tie {
					ties++
					below = belowByLow(lo, thr)
				}
				if want := (uint64(hi)<<32 | uint64(lo)) >> 11; (below == 1) != (want < thr) || below > 1 {
					t.Fatalf("t=%#x hi=%#x lo=%#x: high-half rule says %d (tie %v), x=%#x < t is %v", thr, hi, lo, below, tie, want, want < thr)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no probe reached the tie branch")
	}
}

// FuzzBernoulliLanesMasked pins the masked lane routine to the dense one
// and to the scalar definition: whatever need is, the lanes it names
// read as one Uint64()>>11 < t draw each at their own stream positions,
// the others read 0, and the stream is left n draws on. LanesBelow, given
// each lane's threshold, reads every lane the same way.
func FuzzBernoulliLanesMasked(f *testing.F) {
	const half = 1 << 52
	third := BernoulliThreshold(1.0 / 3)
	for _, need := range []uint64{0, 1, 1 << 63, ^uint64(0), 0xdeadbeefcafef00d} {
		for _, n := range []int{0, 1, 37, 63, 64} {
			f.Add(uint64(n)+1, need, ^need, uint64(half), third, uint8(n))
			f.Add(uint64(n)+2, need, uint64(0), third, third, uint8(n))
		}
	}
	f.Fuzz(func(t *testing.T, seed, need, sel, t0, t1 uint64, nRaw uint8) {
		n := int(nRaw) % 65
		t0, t1 = t0%(1<<53+1), t1%(1<<53+1)
		masked, dense, perLane, scalar := NewStream(seed, 3), NewStream(seed, 3), NewStream(seed, 3), NewStream(seed, 3)

		var want uint64
		var thr [64]uint64
		for j := 0; j < n; j++ {
			thr[j] = t0
			if sel>>uint(j)&1 == 1 {
				thr[j] = t1
			}
			if scalar.Uint64()>>11 < thr[j] {
				want |= 1 << uint(j)
			}
		}
		if got := perLane.LanesBelow(thr[:n]); got != want {
			t.Fatalf("n=%d sel=%#x t0=%#x t1=%#x: LanesBelow %#x, scalar draws %#x", n, sel, t0, t1, got, want)
		}
		all := dense.BernoulliLanes(^uint64(0), sel, t0, t1, n)
		if all != want {
			t.Fatalf("n=%d sel=%#x t0=%#x t1=%#x: dense lanes %#x, scalar draws %#x", n, sel, t0, t1, all, want)
		}
		if got := masked.BernoulliLanes(need, sel, t0, t1, n); got != all&need {
			t.Fatalf("n=%d need=%#x sel=%#x t0=%#x t1=%#x: masked lanes %#x, dense&need %#x", n, need, sel, t0, t1, got, all&need)
		}
		next := scalar.Uint64()
		if g := masked.Uint64(); g != next {
			t.Fatalf("n=%d need=%#x: masked call left the stream at %#x, %d draws leave it at %#x", n, need, g, n, next)
		}
		if g := dense.Uint64(); g != next {
			t.Fatalf("n=%d: dense call left the stream at %#x, %d draws leave it at %#x", n, g, n, next)
		}
		if g := perLane.Uint64(); g != next {
			t.Fatalf("n=%d: LanesBelow left the stream at %#x, %d draws leave it at %#x", n, g, n, next)
		}
	})
}

func BenchmarkBernoulliLanes(b *testing.B) {
	third := BernoulliThreshold(1.0 / 3)
	for _, bc := range []struct {
		name string
		need uint64
	}{
		{"dense", ^uint64(0)},
		{"half", 0xa5c3_96e1_5a3c_691e},
		{"eighth", 0x8001_0200_0410_0081},
		{"none", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := New(1)
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= p.BernoulliLanes(bc.need, sink, third, third<<1, 64)
			}
			_ = sink
		})
	}
}
