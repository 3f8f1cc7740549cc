package collective

import (
	"math"
	"testing"

	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// FuzzGramSchmidt: for any rows×rank matrix with rank ≤ rows — random,
// zero, duplicated or otherwise rank-deficient columns — the
// orthonormalization must return pairwise-orthogonal unit columns to
// 1e-12. Degenerate columns are replaced by projected basis vectors, so
// the post-condition holds even when the input spans fewer than rank
// dimensions.
func FuzzGramSchmidt(f *testing.F) {
	f.Add(uint64(1), 4, 2, uint8(0))
	f.Add(uint64(7), 1, 1, uint8(0x0f))
	f.Add(uint64(9), 8, 8, uint8(0xff))
	f.Add(uint64(23), 17, 5, uint8(0xa5))
	f.Fuzz(func(t *testing.T, seed uint64, rows, rank int, degen uint8) {
		if rows < 1 || rows > 32 || rank < 1 || rank > rows {
			t.Skip()
		}
		r := rng.New(seed)
		m := r.NormVec(make(tensor.Vec, rows*rank), 0, 1)
		// Structured degeneracies: low bits of degen zero a column, high
		// bits duplicate a column onto its right neighbor.
		for k := 0; k < rank && k < 4; k++ {
			if degen&(1<<k) != 0 {
				for i := 0; i < rows; i++ {
					m[i*rank+k] = 0
				}
			}
		}
		for k := 0; k+1 < rank && k < 4; k++ {
			if degen&(1<<(4+k)) != 0 {
				for i := 0; i < rows; i++ {
					m[i*rank+k+1] = m[i*rank+k]
				}
			}
		}
		GramSchmidt(m, rows, rank)
		for a := 0; a < rank; a++ {
			for b := a; b < rank; b++ {
				dot := 0.0
				for i := 0; i < rows; i++ {
					dot += m[i*rank+a] * m[i*rank+b]
				}
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(dot-want) > 1e-12 {
					t.Fatalf("rows=%d rank=%d degen=%#x: <q%d,q%d> = %v, want %v",
						rows, rank, degen, a, b, dot, want)
				}
			}
		}
	})
}

// checkOrthonormal fails t unless the rank columns of the rows×rank
// row-major matrix m are pairwise orthogonal unit vectors to tol.
func checkOrthonormal(t *testing.T, m tensor.Vec, rows, rank int, tol float64) {
	t.Helper()
	for a := 0; a < rank; a++ {
		for b := a; b < rank; b++ {
			var dot float64
			for i := 0; i < rows; i++ {
				dot += m[i*rank+a] * m[i*rank+b]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.IsNaN(dot) || math.Abs(dot-want) > tol {
				t.Fatalf("columns %d·%d = %v, want %v", a, b, dot, want)
			}
		}
	}
}

// TestGramSchmidtOrthonormal: random Gaussian columns come out
// orthonormal.
func TestGramSchmidtOrthonormal(t *testing.T) {
	r := rng.New(7)
	const rows, rank = 10, 3
	m := r.NormVec(make(tensor.Vec, rows*rank), 0, 1)
	GramSchmidt(m, rows, rank)
	checkOrthonormal(t, m, rows, rank, 1e-9)
}

// TestGramSchmidtDegenerate: two identical columns — the second must be
// replaced by an orthogonal unit column, not divided by a zero norm
// into NaN.
func TestGramSchmidtDegenerate(t *testing.T) {
	// rows=4, rank=2: rows of (c0, c1) are (1,1), (0,0), (1,1), (0,0).
	m := tensor.Vec{1, 1, 0, 0, 1, 1, 0, 0}
	GramSchmidt(m, 4, 2)
	checkOrthonormal(t, m, 4, 2, 1e-12)
}
