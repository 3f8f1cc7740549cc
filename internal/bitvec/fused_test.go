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

// requireSignKernels checks SubScaled, UnpackScaled and MatchRate on bits
// against the pre-bits-update oracles: SubScaled and UnpackScaled against
// unpackScaledSub's two halves, and MatchRate against tensor.MatchRate
// over the vector UnpackScaled writes.
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

	gotRate, wantRate := bits.MatchRate(ref), tensor.MatchRate(dense, ref)
	if math.Float64bits(gotRate) != math.Float64bits(wantRate) {
		t.Fatalf("n=%d: MatchRate = %v, tensor.MatchRate over the unpacked update %v", n, gotRate, wantRate)
	}
}

// matchRateEdges are the reference values whose sign MatchRate must read
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

func FuzzSignKernelsAgainstScalar(f *testing.F) {
	for _, n := range fuzzVecLens {
		f.Add(uint64(n), uint16(n), 0.04)
	}
	f.Add(uint64(1), uint16(0), 1e-300)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, scale float64) {
		if !(scale > 0) {
			t.Skip("MatchRate and SubScaled take a positive scale")
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

var matchRateSink float64

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

func BenchmarkMatchRateSigns(b *testing.B) {
	bits := fuzzVec(6, benchBits)
	ref := fuzzFloats(7, benchBits)
	dense := make([]float64, benchBits)
	bits.UnpackScaled(dense, 0.04)
	b.Run("bits", func(b *testing.B) {
		b.SetBytes(8 * benchBits)
		for i := 0; i < b.N; i++ {
			matchRateSink += bits.MatchRate(ref)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.SetBytes(8 * benchBits)
		for i := 0; i < b.N; i++ {
			matchRateSink += tensor.MatchRate(dense, ref)
		}
	})
}
