package rng

import "testing"

// TestBernoulliThresholdExact checks the claim the integer compare rests
// on: x < T decides exactly as float64(x)/2⁵³ < p does. The decision can
// only flip at the threshold, so the two draws around it are the whole
// proof for one p: T−1 must be below p and T must not. Every merge
// probability the collectives use (b/(a+b) for up to 64 workers a side)
// is covered, plus random p across (0, 1).
func TestBernoulliThresholdExact(t *testing.T) {
	check := func(p float64) {
		t.Helper()
		thr := BernoulliThreshold(p)
		for _, x := range []uint64{thr - 1, thr} {
			if x >= 1<<53 { // T = 0 wraps, T = 2⁵³ is no draw
				continue
			}
			if byFloat, byInt := float64(x)/(1<<53) < p, x < thr; byFloat != byInt {
				t.Fatalf("p=%v (T=%d): draw %d decides %v as a float, %v as an integer", p, thr, x, byFloat, byInt)
			}
		}
	}
	for a := 1; a <= 64; a++ {
		for b := 1; b <= 64; b++ {
			check(float64(b) / float64(a+b))
		}
	}
	r := New(53)
	for i := 0; i < 10_000; i++ {
		if p := r.Float64(); p > 0 {
			check(p)
		}
	}
	// The extremes of (0, 1): the smallest draw still decides correctly.
	check(1.0 / (1 << 53))
	check(1 - 1.0/(1<<53))
	check(5e-324)
}

// TestBernoulliWordGolden pins BernoulliWord's words and stream position
// to values recorded before the per-bit loop was replaced (seed 2024,
// stream 5): same bits, same number of draws.
func TestBernoulliWordGolden(t *testing.T) {
	golden := []struct {
		prob       float64
		nbits      int
		word, next uint64
	}{
		{0.25, 1, 0x1, 0xb148d328a6af265e},
		{0.25, 37, 0x17000c1631, 0xcce142299ac6f244},
		{0.25, 64, 0xa0c70117000c1631, 0x2a74bb9b63b14872},
		{1.0 / 3, 1, 0x1, 0xb148d328a6af265e},
		{1.0 / 3, 37, 0x1f000c5731, 0xcce142299ac6f244},
		{1.0 / 3, 64, 0xa0c7011f000c5731, 0x2a74bb9b63b14872},
		{0.9, 1, 0x1, 0xb148d328a6af265e},
		{0.9, 37, 0x1fff7fffff, 0xcce142299ac6f244},
		{0.9, 64, 0xffff7fffff7fffff, 0x2a74bb9b63b14872},
	}
	for _, g := range golden {
		r := NewStream(2024, 5)
		if w := r.BernoulliWord(g.prob, g.nbits); w != g.word {
			t.Fatalf("BernoulliWord(%v, %d) = %#x, recorded %#x", g.prob, g.nbits, w, g.word)
		}
		if next := r.Uint64(); next != g.next {
			t.Fatalf("BernoulliWord(%v, %d) left the stream at %#x, recorded %#x", g.prob, g.nbits, next, g.next)
		}
	}
}
