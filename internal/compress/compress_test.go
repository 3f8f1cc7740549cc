package compress

import (
	"fmt"
	"math"
	"testing"

	"marsit/internal/rng"
	"marsit/internal/tensor"
)

func TestSignPreservesSigns(t *testing.T) {
	g := tensor.Vec{-3, 0.5, 0, -0.1}
	p := NewSign().Compress(g)
	got := make(tensor.Vec, 4)
	p.Signs.UnpackSigns(got)
	for i := range g {
		if tensor.Sign(got[i]) != tensor.Sign(g[i]) {
			t.Fatalf("sign flipped at %d: %v vs %v", i, got[i], g[i])
		}
	}
	// Scale = l1/D = (3+0.5+0+0.1)/4 = 0.9
	if math.Abs(p.Norm-0.9) > 1e-12 {
		t.Fatalf("Norm = %v", p.Norm)
	}
	if p.Bits != 4+32 {
		t.Fatalf("Bits = %d", p.Bits)
	}
}

func TestSignEmptyVec(t *testing.T) {
	p := NewSign().Compress(nil)
	if p.Norm != 0 || p.Bits != 32 {
		t.Fatalf("empty sign payload: %+v", p)
	}
}

// TestSignCompressWordBoundaries checks Compress on either side of the
// 64-bit word edges the sign packer works in: one bit per element, set
// iff the element is non-negative; Norm = ‖g‖₁/D; Bits = D + 32.
func TestSignCompressWordBoundaries(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 1000} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			g := rng.New(uint64(d)).NormVec(make(tensor.Vec, d), 0, 1)
			g[0] = 0 // zero packs as non-negative
			p := NewSign().Compress(g)
			if p.Signs.Len() != d {
				t.Fatalf("Signs.Len() = %d", p.Signs.Len())
			}
			if want := tensor.Norm1(g) / float64(d); p.Norm != want {
				t.Fatalf("Norm = %v, want %v", p.Norm, want)
			}
			if p.Bits != d+32 {
				t.Fatalf("Bits = %d", p.Bits)
			}
			for i, x := range g {
				if p.Signs.Get(i) != (x >= 0) {
					t.Fatalf("bit %d = %v for element %v", i, p.Signs.Get(i), x)
				}
			}
		})
	}
}

func BenchmarkSignCompress(b *testing.B) {
	r := rng.New(1)
	c := NewSign()
	g := r.NormVec(make(tensor.Vec, 1<<14), 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Compress(g)
	}
}
