package core

import (
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/rng"
)

// mergeSignsScalar is the scalar ⊙-merge oracle: MergeSigns' body as it
// stood before the merge drew its transient a word at a time, kept
// verbatim — a stored transient vector filled one bit at a time with one
// Bernoulli (= one Float64) draw per element, then the word-parallel
// Merge3.
func mergeSignsScalar(agg, local *bitvec.Vec, aWeight, bWeight int, r *rng.PCG) {
	total := float64(aWeight + bWeight)
	pLocal1 := float64(bWeight) / total // local bit 1 → transient 1 w.p. b/(a+b)
	pLocal0 := float64(aWeight) / total // local bit 0 → transient 1 w.p. a/(a+b)
	transient := bitvec.New(agg.Len())
	for i := 0; i < agg.Len(); i++ {
		p := pLocal0
		if local.Get(i) {
			p = pLocal1
		}
		transient.Set(i, r.Bernoulli(p))
	}
	agg.Merge3(local, transient)
}

// FuzzMergeSignsAgainstScalar pins the kernel's bit-identity claim:
// for any length, weights and stream position, MergeSigns leaves the
// same merged bits as the scalar oracle and leaves the stream where the
// oracle leaves it (the same number of draws consumed, so every later
// hop of a schedule sees the same draws too).
func FuzzMergeSignsAgainstScalar(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		for seed := uint64(1); seed <= 3; seed++ {
			f.Add(seed, uint16(n), uint8(3), uint8(1))
			f.Add(seed, uint16(n), uint8(1), uint8(1))
		}
	}
	for w := 1; w <= 64; w++ {
		f.Add(uint64(w), uint16(130), uint8(w), uint8(1))
		f.Add(uint64(w), uint16(130), uint8(1), uint8(w))
		f.Add(uint64(w), uint16(130), uint8(w), uint8(65-w))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, aRaw, bRaw uint8) {
		n := int(nRaw) % 2049
		a, b := int(aRaw-1)%64+1, int(bRaw-1)%64+1
		src := rng.New(seed)
		agg, local := bitvec.New(n), bitvec.New(n)
		agg.FillBernoulli(src, 0.5)
		local.FillBernoulli(src, 0.5)
		want := agg.Clone()

		fast, ref := rng.NewStream(seed, 7), rng.NewStream(seed, 7)
		MergeSigns(agg, local, a, b, fast)
		mergeSignsScalar(want, local, a, b, ref)
		if !agg.Equal(want) {
			t.Fatalf("n=%d weights %d:%d: merged bits diverge from the scalar oracle\n got %v\nwant %v", n, a, b, agg, want)
		}
		if g, w := fast.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("n=%d weights %d:%d: stream position diverges after the merge (next draw %#x, oracle %#x)", n, a, b, g, w)
		}
	})
}
