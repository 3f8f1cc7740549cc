package bitvec

import (
	"math"
	"testing"
)

// TestFusedRoundKernelsMatchUnfused pins the two fused passes of a
// one-bit round to the separate passes they replace, bit for bit and on
// the IEEE edge cases: PackSignsOfSum against an add followed by
// PackSigns, UnpackScaledSub against UnpackSigns, a scale and a subtract.
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
		dst, dstRef := make([]float64, n), make([]float64, n)
		bits.UnpackScaledSub(dst, acc, scale)
		bits.UnpackSigns(dstRef)
		for i := range dstRef {
			dstRef[i] *= scale
			accRef[i] -= dstRef[i]
		}
		requireSameBits(t, "UnpackScaledSub update", dst, dstRef)
		requireSameBits(t, "UnpackScaledSub remainder", acc, accRef)
	}
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
