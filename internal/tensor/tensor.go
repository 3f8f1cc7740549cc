// Package tensor provides flat float64 vector primitives shared by the
// compression, collective, and neural-network layers of the Marsit
// reproduction. Gradients, model parameters, and compensation vectors are
// all represented as []float64; this package centralizes the arithmetic
// so numerical conventions (sign of zero, norm definitions) live in one
// place.
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense 1-D float64 vector.
type Vec = []float64

// New returns a zeroed vector of length n.
func New(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0 and returns v.
func Zero(v Vec) Vec {
	for i := range v {
		v[i] = 0
	}
	return v
}

// Fill sets every element of v to c and returns v.
func Fill(v Vec, c float64) Vec {
	for i := range v {
		v[i] = c
	}
	return v
}

// Add computes dst += src element-wise. Lengths must match.
func Add(dst, src Vec) {
	checkLen(len(dst), len(src))
	for i := range dst {
		dst[i] += src[i]
	}
}

// Sub computes dst -= src element-wise. Lengths must match.
func Sub(dst, src Vec) {
	checkLen(len(dst), len(src))
	for i := range dst {
		dst[i] -= src[i]
	}
}

// Axpy computes dst += alpha*src element-wise. Lengths must match.
func Axpy(dst Vec, alpha float64, src Vec) {
	checkLen(len(dst), len(src))
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}

// Scale multiplies every element of v by alpha.
func Scale(v Vec, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product of a and b. Lengths must match.
func Dot(a, b Vec) float64 {
	checkLen(len(a), len(b))
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean (ℓ2) norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Norm1 returns the ℓ1 norm of v.
func Norm1(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the maximum absolute element of v (0 for empty v).
func NormInf(v Vec) float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b Vec) float64 {
	checkLen(len(a), len(b))
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sign returns the sign of x as ±1. Zero maps to +1, matching the
// repository-wide convention that bit 1 encodes a non-negative element.
func Sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// SignVec writes the element-wise sign of src into dst and returns dst.
// dst may alias src.
func SignVec(dst, src Vec) Vec {
	checkLen(len(dst), len(src))
	for i, x := range src {
		dst[i] = Sign(x)
	}
	return dst
}

// Mean returns the arithmetic mean of v (0 for empty v).
func Mean(v Vec) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Sum returns the sum of all elements of v.
func Sum(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Argmax returns the index of the largest element (first on ties).
// It panics on an empty vector.
func Argmax(v Vec) int {
	if len(v) == 0 {
		panic("tensor: Argmax of empty vector")
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// MatchRate returns the fraction of indices where a and b have the same
// sign (under the zero-is-positive convention). It is the "matching rate"
// metric of Figure 1b. An empty pair matches perfectly.
func MatchRate(a, b Vec) float64 {
	checkLen(len(a), len(b))
	if len(a) == 0 {
		return 1
	}
	b = b[:len(a)]
	// Two signs differ exactly when one of a[i] < 0, b[i] < 0 holds; each
	// test becomes a 0/1 integer (SETcc), so random signs cost no
	// mispredicted branches.
	differ := 0
	for i, x := range a {
		var na, nb int
		if x < 0 {
			na = 1
		}
		if b[i] < 0 {
			nb = 1
		}
		differ += na ^ nb
	}
	return float64(len(a)-differ) / float64(len(a))
}

// Segment describes a half-open index range [Lo, Hi) of a vector.
type Segment struct {
	Lo, Hi int
}

// Len returns the number of elements in the segment.
func (s Segment) Len() int { return s.Hi - s.Lo }

// Of returns the sub-slice of v covered by the segment.
func (s Segment) Of(v Vec) Vec { return v[s.Lo:s.Hi] }

// Partition splits [0, n) into parts contiguous segments whose lengths
// differ by at most one (the first n%parts segments get the extra
// element). This is exactly the segment layout ring all-reduce uses.
func Partition(n, parts int) []Segment {
	if parts <= 0 {
		panic("tensor: Partition with non-positive parts")
	}
	segs := make([]Segment, parts)
	base := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		segs[i] = Segment{Lo: lo, Hi: lo + size}
		lo += size
	}
	return segs
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
