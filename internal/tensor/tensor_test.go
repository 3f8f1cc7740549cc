package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestNewZeroed(t *testing.T) {
	v := New(5)
	if len(v) != 5 {
		t.Fatalf("len = %d", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("v[%d] = %v", i, x)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vec{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestZeroFill(t *testing.T) {
	v := Vec{1, 2, 3}
	Fill(v, 7)
	for _, x := range v {
		if x != 7 {
			t.Fatalf("Fill: %v", v)
		}
	}
	Zero(v)
	for _, x := range v {
		if x != 0 {
			t.Fatalf("Zero: %v", v)
		}
	}
}

func TestAddSubAxpyScale(t *testing.T) {
	a := Vec{1, 2, 3}
	Add(a, Vec{1, 1, 1})
	if a[0] != 2 || a[1] != 3 || a[2] != 4 {
		t.Fatalf("Add: %v", a)
	}
	Sub(a, Vec{2, 2, 2})
	if a[0] != 0 || a[1] != 1 || a[2] != 2 {
		t.Fatalf("Sub: %v", a)
	}
	Axpy(a, 2, Vec{1, 1, 1})
	if a[0] != 2 || a[1] != 3 || a[2] != 4 {
		t.Fatalf("Axpy: %v", a)
	}
	Scale(a, 0.5)
	if a[0] != 1 || a[1] != 1.5 || a[2] != 2 {
		t.Fatalf("Scale: %v", a)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	Add(Vec{1}, Vec{1, 2})
}

func TestDotNorms(t *testing.T) {
	a := Vec{3, 4}
	if !almostEq(Dot(a, a), 25) {
		t.Fatalf("Dot: %v", Dot(a, a))
	}
	if !almostEq(Norm2(a), 5) {
		t.Fatalf("Norm2: %v", Norm2(a))
	}
	if !almostEq(Norm1(Vec{-1, 2, -3}), 6) {
		t.Fatalf("Norm1: %v", Norm1(Vec{-1, 2, -3}))
	}
	if !almostEq(NormInf(Vec{-1, 2, -3}), 3) {
		t.Fatalf("NormInf")
	}
	if NormInf(nil) != 0 {
		t.Fatalf("NormInf(nil)")
	}
	if !almostEq(Dist2(Vec{0, 0}, Vec{3, 4}), 5) {
		t.Fatalf("Dist2")
	}
}

func TestSignConvention(t *testing.T) {
	if Sign(0) != 1 {
		t.Fatal("Sign(0) must be +1 by convention")
	}
	if Sign(-0.001) != -1 || Sign(2) != 1 {
		t.Fatal("Sign wrong")
	}
	v := SignVec(make(Vec, 3), Vec{-5, 0, 5})
	if v[0] != -1 || v[1] != 1 || v[2] != 1 {
		t.Fatalf("SignVec: %v", v)
	}
}

func TestSignVecAliasing(t *testing.T) {
	v := Vec{-2, 3}
	SignVec(v, v)
	if v[0] != -1 || v[1] != 1 {
		t.Fatalf("in-place SignVec: %v", v)
	}
}

func TestMeanSumArgmax(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if !almostEq(Mean(Vec{1, 2, 3}), 2) {
		t.Fatal("Mean")
	}
	if !almostEq(Sum(Vec{1, 2, 3}), 6) {
		t.Fatal("Sum")
	}
	if Argmax(Vec{1, 5, 5, 2}) != 1 {
		t.Fatal("Argmax ties must pick first")
	}
}

func TestArgmaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Argmax(nil)
}

func TestMatchRate(t *testing.T) {
	a := Vec{1, -1, 1, -1}
	b := Vec{2, -3, -4, -5}
	if got := MatchRate(a, b); !almostEq(got, 0.75) {
		t.Fatalf("MatchRate = %v", got)
	}
	if MatchRate(nil, nil) != 1 {
		t.Fatal("empty MatchRate should be 1")
	}
}

// matchRateBranchy is MatchRate's body before it went branch-free, kept
// verbatim as its reference.
func matchRateBranchy(a, b Vec) float64 {
	checkLen(len(a), len(b))
	if len(a) == 0 {
		return 1
	}
	match := 0
	for i := range a {
		if Sign(a[i]) == Sign(b[i]) {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// TestMatchRateMatchesBranchy compares MatchRate with the branching
// reference bit for bit on every pair of IEEE edge values — −0, NaN of
// both signs, ±Inf, ±denormal — at every length 0–9.
func TestMatchRateMatchesBranchy(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Copysign(math.NaN(), -1),
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 1, -1,
	}
	// Lengths 0–9 over sliding windows of the edge values, against the
	// same windows shifted, so every pair of edges meets at some index.
	for n := 0; n <= 9; n++ {
		for off := range edges {
			for shift := range edges {
				a, b := make(Vec, n), make(Vec, n)
				for i := range a {
					a[i] = edges[(off+i)%len(edges)]
					b[i] = edges[(off+shift+i)%len(edges)]
				}
				got, want := MatchRate(a, b), matchRateBranchy(a, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n %d: MatchRate(%v, %v) = %v, want %v", n, a, b, got, want)
				}
			}
		}
	}
}

var matchRateSink float64

func BenchmarkMatchRate(b *testing.B) {
	const n = 1 << 16
	x, y := make(Vec, n), make(Vec, n)
	s := uint64(1)
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(s)) // random signs
		s = s*6364136223846793005 + 1442695040888963407
		y[i] = float64(int64(s))
	}
	for _, leg := range []struct {
		name string
		f    func(a, b Vec) float64
	}{{"branchfree", MatchRate}, {"branchy", matchRateBranchy}} {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(16 * n)
			for i := 0; i < b.N; i++ {
				matchRateSink += leg.f(x, y)
			}
		})
	}
}

func TestPartitionProperties(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw % 2000)
		parts := int(pRaw%32) + 1
		segs := Partition(n, parts)
		if len(segs) != parts {
			return false
		}
		// Contiguous cover of [0, n), sizes differ by at most 1.
		lo := 0
		minLen, maxLen := n+1, -1
		for _, s := range segs {
			if s.Lo != lo || s.Hi < s.Lo {
				return false
			}
			lo = s.Hi
			if s.Len() < minLen {
				minLen = s.Len()
			}
			if s.Len() > maxLen {
				maxLen = s.Len()
			}
		}
		return lo == n && maxLen-minLen <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSegmentOf(t *testing.T) {
	v := Vec{0, 1, 2, 3, 4, 5, 6}
	segs := Partition(len(v), 3)
	if got := segs[0].Of(v); len(got) != 3 || got[0] != 0 {
		t.Fatalf("segment 0: %v", got)
	}
	if got := segs[2].Of(v); len(got) != 2 || got[1] != 6 {
		t.Fatalf("segment 2: %v", got)
	}
}

func TestPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Partition(10, 0)
}

func BenchmarkAxpy(b *testing.B) {
	dst := New(4096)
	src := Fill(New(4096), 1.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Axpy(dst, 0.1, src)
	}
}

func BenchmarkNorm2(b *testing.B) {
	v := Fill(New(4096), 1.5)
	for i := 0; i < b.N; i++ {
		_ = Norm2(v)
	}
}
