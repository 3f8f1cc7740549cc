package bitvec

import (
	"math"
	"testing"

	"marsit/internal/tensor"
)

// unpackScaledSub is the fused lines 9–10 kernel a one-bit round ran
// before its update stayed bits, kept verbatim as the oracle of SubScaled
// (its acc half) and of UnpackScaled (its dst half): dst[i] = ±scale and
// acc[i] −= dst[i] in one pass.
func unpackScaledSub(v *Vec, dst, acc []float64, scale float64) {
	pos := math.Float64bits(scale)
	for wi, w := range v.words {
		lo := wi << 6
		hi := min(lo+64, v.n)
		out, a := dst[lo:hi], acc[lo:hi]
		for j := range out {
			g := math.Float64frombits(pos | (^w&1)<<63)
			out[j] = g
			a[j] -= g
			w >>= 1
		}
	}
}

// TestFusedRoundKernelsMatchUnfused pins the passes of a one-bit round to
// the separate passes they replace, bit for bit and on the IEEE edge
// cases: PackSignsOfSum against an add followed by PackSigns, SubScaled
// against UnpackSigns, a scale and a subtract.
func TestFusedRoundKernelsMatchUnfused(t *testing.T) {
	const scale = 0.04
	for _, n := range append([]int{0}, fuzzVecLens...) {
		x := fuzzFloats(uint64(n), n)
		acc, accRef := fuzzFloats(uint64(n)^0xacc, n), fuzzFloats(uint64(n)^0xacc, n)

		fast, ref := New(n), New(n)
		fast.PackSignsOfSum(acc, x)
		for i := range accRef {
			accRef[i] += x[i]
		}
		ref.PackSigns(accRef)
		if !fast.Equal(ref) {
			t.Fatalf("n=%d: PackSignsOfSum packs %v, add-then-pack %v", n, fast, ref)
		}
		requireSameBits(t, "PackSignsOfSum sum", acc, accRef)

		bits := fuzzVec(uint64(n)^0xb175, n)
		dstRef := make([]float64, n)
		bits.SubScaled(acc, scale)
		bits.UnpackSigns(dstRef)
		for i := range dstRef {
			dstRef[i] *= scale
			accRef[i] -= dstRef[i]
		}
		requireSameBits(t, "SubScaled remainder", acc, accRef)
	}
}

// requireSignKernels checks SubScaled, UnpackScaled and MatchCount on bits
// against the pre-bits-update oracles: SubScaled and UnpackScaled against
// unpackScaledSub's two halves, and MatchCount against tensor.MatchCount
// (the numerator of tensor.MatchRate) over the vector UnpackScaled
// writes.
func requireSignKernels(t *testing.T, bits *Vec, acc, ref []float64, scale float64) {
	t.Helper()
	n := bits.Len()
	got, want := append([]float64(nil), acc...), append([]float64(nil), acc...)
	dense := make([]float64, n)
	bits.SubScaled(got, scale)
	unpackScaledSub(bits, dense, want, scale)
	requireSameBits(t, "SubScaled", got, want)

	unpacked := make([]float64, n)
	bits.UnpackScaled(unpacked, scale)
	requireSameBits(t, "UnpackScaled", unpacked, dense)

	if got, want := bits.MatchCount(ref), tensor.MatchCount(dense, ref); got != want {
		t.Fatalf("n=%d: MatchCount = %d, tensor.MatchCount over the unpacked update %d", n, got, want)
	}
}

// matchRateEdges are the reference values whose sign MatchCount must read
// with x < 0, not the sign bit or x >= 0: −0, NaN of both signs, ±Inf
// and ±denormals.
var matchRateEdges = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1),
	math.Inf(1), math.Inf(-1), 5e-324, -5e-324, -math.SmallestNonzeroFloat64 * 3, 1, -1,
}

// TestSignKernelsMatchDense runs requireSignKernels at every length 0–130,
// so every tail width of a last word and the full words around it meet
// every IEEE edge value in ref at some index.
func TestSignKernelsMatchDense(t *testing.T) {
	for n := 0; n <= 130; n++ {
		for off := 0; off < len(matchRateEdges); off += 3 {
			ref := fuzzFloats(uint64(n)^0x3a7c, n)
			for i := range ref {
				if (i+off)%2 == 0 {
					ref[i] = matchRateEdges[(i+off)%len(matchRateEdges)]
				}
			}
			requireSignKernels(t, fuzzVec(uint64(n*31+off), n), fuzzFloats(uint64(n)^0xacc, n), ref, 0.04)
		}
	}
}

// TestSignKernelsOnSlices pins the trainer's range split of a one-bit
// update to the whole-vector kernels: over the word-aligned ranges of
// tensor.PartitionAligned, the MatchCounts of the Slices add up to the
// whole vector's count, and their UnpackScaled writes the whole vector's
// values, bit for bit. Lengths cover a partial last word, fewer words
// than ranges (empty ranges) and the IEEE edge values in ref.
func TestSignKernelsOnSlices(t *testing.T) {
	const scale = 0.04
	for _, n := range []int{0, 1, 63, 64, 65, 129, 200, 1001} {
		bits := fuzzVec(uint64(n)^0x51ce, n)
		ref := fuzzFloats(uint64(n)^0x3a7c, n)
		for i := range ref {
			if i%3 == 0 {
				ref[i] = matchRateEdges[i%len(matchRateEdges)]
			}
		}
		want := make([]float64, n)
		bits.UnpackScaled(want, scale)
		wantCount := tensor.MatchCount(want, ref)
		if got := bits.MatchCount(ref); got != wantCount {
			t.Fatalf("n=%d: MatchCount = %d, tensor.MatchCount over the unpacked update %d", n, got, wantCount)
		}
		for _, lanes := range []int{1, 2, 3, 4, 8} {
			got, count := make([]float64, n), 0
			for _, seg := range tensor.PartitionAligned(n, lanes, 64) {
				s := bits.Slice(seg.Lo, seg.Hi)
				count += s.MatchCount(seg.Of(ref))
				s.UnpackScaled(seg.Of(got), scale)
			}
			if count != wantCount {
				t.Fatalf("n=%d, %d ranges: counts add up to %d, want %d", n, lanes, count, wantCount)
			}
			requireSameBits(t, "UnpackScaled by range", got, want)
		}
	}
}

// TestSliceNeedsWordAlignment: a range that starts or ends inside a word
// (other than at Len) would share that word with its neighbour.
func TestSliceNeedsWordAlignment(t *testing.T) {
	v := New(200)
	for _, r := range [][2]int{{1, 64}, {0, 65}, {64, 199}, {-64, 0}, {192, 256}, {65, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Slice(%d, %d) of length 200 did not panic", r[0], r[1])
				}
			}()
			v.Slice(r[0], r[1])
		}()
	}
	for _, r := range [][2]int{{0, 64}, {64, 200}, {192, 200}, {200, 200}, {7, 7}} {
		if s := v.Slice(r[0], r[1]); s.Len() != r[1]-r[0] {
			t.Fatalf("Slice(%d, %d) has length %d", r[0], r[1], s.Len())
		}
	}
}

func FuzzSignKernelsAgainstScalar(f *testing.F) {
	for _, n := range fuzzVecLens {
		f.Add(uint64(n), uint16(n), 0.04)
	}
	f.Add(uint64(1), uint16(0), 1e-300)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, scale float64) {
		if !(scale > 0) {
			t.Skip("MatchCount and SubScaled take a positive scale")
		}
		n := int(nRaw) % 513
		ref := fuzzFloats(seed^0x3a7c, n)
		for i := range ref {
			if i%5 == 1 {
				ref[i] = matchRateEdges[(seed+uint64(i))%uint64(len(matchRateEdges))]
			}
		}
		requireSignKernels(t, fuzzVec(seed, n), fuzzFloats(seed^0xacc, n), ref, scale)
	})
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		// NaN payloads aside: a NaN + NaN sum may keep either operand's.
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s [%d] = %v, unfused %v", what, i, got[i], want[i])
		}
	}
}

var matchCountSink int

func BenchmarkSubScaled(b *testing.B) {
	bits := fuzzVec(4, benchBits)
	acc, dst := fuzzFloats(5, benchBits), make([]float64, benchBits)
	b.Run("bits", func(b *testing.B) {
		b.SetBytes(16 * benchBits)
		for i := 0; i < b.N; i++ {
			bits.SubScaled(acc, 0.04)
		}
	})
	// The fused unpack-and-subtract it replaced, which also stored g_t.
	b.Run("unpackScaledSub", func(b *testing.B) {
		b.SetBytes(16 * benchBits)
		for i := 0; i < b.N; i++ {
			unpackScaledSub(bits, dst, acc, 0.04)
		}
	})
}

func BenchmarkMatchCountSigns(b *testing.B) {
	bits := fuzzVec(6, benchBits)
	ref := fuzzFloats(7, benchBits)
	dense := make([]float64, benchBits)
	bits.UnpackScaled(dense, 0.04)
	b.Run("bits", func(b *testing.B) {
		b.SetBytes(8 * benchBits)
		for i := 0; i < b.N; i++ {
			matchCountSink += bits.MatchCount(ref)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.SetBytes(8 * benchBits)
		for i := 0; i < b.N; i++ {
			matchCountSink += tensor.MatchCount(dense, ref)
		}
	})
}
