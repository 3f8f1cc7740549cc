package collective

import (
	"math"
	"math/bits"
	"testing"

	"marsit/internal/compress"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// TestBitWidthExpansionSufficient is the property behind the "overflow"
// scheme's wire formula: aggregating w workers yields per-coordinate
// sums in [−w, w], and ⌈log2 w⌉+1 bits (bitsFor(w)+1, the width
// SignSumSegBytes charges) always suffice to code the zigzag image of
// any such sum.
func TestBitWidthExpansionSufficient(t *testing.T) {
	for w := 1; w <= 1<<16; w = w*2 + 1 {
		perElem := bitsFor(w) + 1
		for _, sum := range []int64{int64(w), int64(-w), 0, 1, -1, int64(w/2 + 1)} {
			if need := bits.Len64(compress.ZigZag(sum)); need > perElem {
				t.Fatalf("workers=%d sum=%d needs %d bits, formula allows %d", w, sum, need, perElem)
			}
		}
		// One past the bound must overflow the width — the expansion is
		// tight, not merely safe.
		if need := bits.Len64(compress.ZigZag(int64(2*w + 1))); need <= perElem {
			t.Fatalf("workers=%d: width %d also fits out-of-range sum %d", w, perElem, 2*w+1)
		}
	}
}

// TestSignSumSegBytesFormula pins the shared wire-size helper both
// engines charge: the fixed-width form is the packed bit-length
// expansion plus the scale constant; the Elias form is the exact
// entropy-coded size of the payload values.
func TestSignSumSegBytesFormula(t *testing.T) {
	vals := []int64{0, 1, -1, 3, -4, 7, -7, 2}
	for _, workers := range []int{1, 2, 3, 8, 9} {
		want := (len(vals)*(bitsFor(workers)+1)+7)/8 + normWireBytes
		if got := SignSumSegBytes(workers, vals, false); got != want {
			t.Fatalf("fixed width workers=%d: %d bytes, want %d", workers, got, want)
		}
	}
	_, bitLen := compress.EliasEncodeInts(vals)
	want := (bitLen+7)/8 + normWireBytes
	if got := SignSumSegBytes(8, vals, true); got != want {
		t.Fatalf("elias: %d bytes, want %d", got, want)
	}
}

func deterministicSigns(n, d int, positives []int) ([][]float64, []float64) {
	// positives[i] = number of workers whose coordinate i is +1.
	signs := make([][]float64, n)
	scales := make([]float64, n)
	for w := 0; w < n; w++ {
		signs[w] = make([]float64, d)
		for i := 0; i < d; i++ {
			if w < positives[i] {
				signs[w][i] = 1
			} else {
				signs[w][i] = -1
			}
		}
		scales[w] = 1
	}
	return signs, scales
}

// votesOf converts ±1 float signs into the integer votes the sign-sum
// schedule accumulates in, one fresh vector per worker.
func votesOf(signs [][]float64) [][]int64 {
	votes := make([][]int64, len(signs))
	for w, sg := range signs {
		votes[w] = make([]int64, len(sg))
		for i, x := range sg {
			votes[w][i] = int64(x)
		}
	}
	return votes
}

func TestSignSumRingExactCounts(t *testing.T) {
	const n, d = 4, 5
	positives := []int{0, 1, 2, 3, 4}
	signs, scales := deterministicSigns(n, d, positives)
	c := cluster(n)
	sums, total := SignSumRing(c, votesOf(signs), scales, false)
	if total != float64(n) {
		t.Fatalf("scale sum %v", total)
	}
	for i := 0; i < d; i++ {
		want := int64(2*positives[i] - n) // (+1)·p + (−1)·(n−p)
		if sums[i] != want {
			t.Fatalf("coordinate %d: sum %d, want %d", i, sums[i], want)
		}
	}
}

func TestSignSumTorusMatchesRing(t *testing.T) {
	tor := topology.NewTorus(2, 3)
	n := tor.Size()
	const d = 7
	positives := []int{0, 1, 2, 3, 4, 5, 6}
	signs, scales := deterministicSigns(n, d, positives)

	cr := cluster(n)
	ringSums, ringTotal := SignSumRing(cr, votesOf(signs), scales, false)
	ct := cluster(n)
	torusSums, torusTotal := SignSumTorus(ct, tor, votesOf(signs), scales, false)

	if ringTotal != torusTotal {
		t.Fatalf("scale totals differ: %v vs %v", ringTotal, torusTotal)
	}
	for i := 0; i < d; i++ {
		if ringSums[i] != torusSums[i] {
			t.Fatalf("coordinate %d: ring %d vs torus %d", i, ringSums[i], torusSums[i])
		}
	}
}

func TestSignSumSingleWorker(t *testing.T) {
	c := cluster(1)
	signs := [][]float64{{1, -1}}
	sums, total := SignSumRing(c, votesOf(signs), []float64{2.5}, false)
	if sums[0] != 1 || sums[1] != -1 || total != 2.5 {
		t.Fatalf("singleton: %v %v", sums, total)
	}
	if c.TotalBytes() != 0 {
		t.Fatal("singleton transmitted")
	}
}

func TestSignSumValidation(t *testing.T) {
	c := cluster(2)
	for _, fn := range []func(){
		func() { SignSumRing(c, votesOf([][]float64{{1}}), []float64{1}, false) },
		func() { SignSumRing(c, votesOf([][]float64{{1}, {1, 2}}), []float64{1, 1}, false) },
		func() {
			SignSumTorus(c, topology.NewTorus(1, 3), votesOf([][]float64{{1}, {1}}), []float64{1, 1}, false)
		},
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

func TestSignSumEliasBytesSmaller(t *testing.T) {
	// Concentrated sums (half + / half −) compress well under Elias.
	const n, d = 8, 2048
	r := rng.New(1)
	signs := make([][]float64, n)
	scales := make([]float64, n)
	for w := 0; w < n; w++ {
		signs[w] = make([]float64, d)
		for i := range signs[w] {
			if r.Bernoulli(0.5) {
				signs[w][i] = 1
			} else {
				signs[w][i] = -1
			}
		}
		scales[w] = 1
	}
	cFixed := cluster(n)
	SignSumRing(cFixed, votesOf(signs), scales, false)
	cElias := cluster(n)
	SignSumRing(cElias, votesOf(signs), scales, true)
	if cElias.TotalBytes() >= cFixed.TotalBytes() {
		t.Fatalf("Elias %d B not below fixed %d B", cElias.TotalBytes(), cFixed.TotalBytes())
	}
}

// majorityDecodeBranchy is MajorityDecode as it stood with the vote on a
// branch, kept verbatim as the oracle.
func majorityDecodeBranchy(sums []int64, totalScale float64, workers int) tensor.Vec {
	meanScale := totalScale / float64(workers)
	out := make(tensor.Vec, len(sums))
	for i, s := range sums {
		if s >= 0 {
			out[i] = meanScale
		} else {
			out[i] = -meanScale
		}
	}
	return out
}

// TestMajorityDecodeMatchesBranchy pins the sign-bit XOR to the branching
// decode bit for bit: ties and extreme sums, and mean scales whose
// negation is not an ordinary subtraction (±0, negative, NaN, ±Inf).
func TestMajorityDecodeMatchesBranchy(t *testing.T) {
	sums := []int64{0, 1, -1, 3, -4, math.MinInt64, math.MaxInt64}
	scales := []float64{0, math.Copysign(0, -1), 2.5, -2.5, math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1), 5e-324}
	for _, total := range scales {
		for _, workers := range []int{1, 4} {
			got := MajorityDecode(sums, total, workers)
			want := majorityDecodeBranchy(sums, total, workers)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("total %v workers %d sum %d: %v (%#x), branching form %v (%#x)", total, workers, sums[i],
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}
