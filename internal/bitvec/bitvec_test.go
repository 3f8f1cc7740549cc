package bitvec

import (
	"math"
	"testing"
	"testing/quick"

	"marsit/internal/rng"
)

func TestNewLenGetSet(t *testing.T) {
	v := New(130) // crosses two word boundaries
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vec", i)
		}
	}
	v.Set(0, true)
	v.Set(64, true)
	v.Set(129, true)
	if !v.Get(0) || !v.Get(64) || !v.Get(129) {
		t.Fatal("Set/Get roundtrip failed")
	}
	v.Set(64, false)
	if v.Get(64) {
		t.Fatal("clear failed")
	}
	if v.OnesCount() != 2 {
		t.Fatalf("OnesCount = %d", v.OnesCount())
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(-1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(10).Get(10)
}

func TestCloneCopyEqual(t *testing.T) {
	v := New(70)
	v.Set(3, true)
	v.Set(69, true)
	c := v.Clone()
	if !c.Equal(v) {
		t.Fatal("clone not equal")
	}
	c.Set(5, true)
	if v.Get(5) {
		t.Fatal("clone aliases original")
	}
	d := New(70)
	d.Copy(v)
	if !d.Equal(v) {
		t.Fatal("copy not equal")
	}
	if v.Equal(New(71)) {
		t.Fatal("different lengths must not be equal")
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(8)
	b := New(8)
	// a = 1100, b = 1010 (low bits).
	a.Set(0, true)
	a.Set(1, true)
	b.Set(0, true)
	b.Set(2, true)

	and := a.Clone()
	and.And(b)
	if and.String() != "10000000" {
		t.Fatalf("And: %s", and.String())
	}
	or := a.Clone()
	or.Or(b)
	if or.String() != "11100000" {
		t.Fatalf("Or: %s", or.String())
	}
	xor := a.Clone()
	xor.Xor(b)
	if xor.String() != "01100000" {
		t.Fatalf("Xor: %s", xor.String())
	}
}

func TestNotClearsTail(t *testing.T) {
	v := New(10)
	v.Not()
	if v.OnesCount() != 10 {
		t.Fatalf("Not set tail bits: count %d", v.OnesCount())
	}
	v.Not()
	if v.OnesCount() != 0 {
		t.Fatal("double Not not identity")
	}
}

func TestFromSignsUnpackRoundtrip(t *testing.T) {
	src := []float64{-1.5, 0, 2.3, -0.0001, 7}
	v := FromSigns(src)
	want := "01101"
	if v.String() != want {
		t.Fatalf("FromSigns: %s want %s", v.String(), want)
	}
	dst := make([]float64, 5)
	v.UnpackSigns(dst)
	expect := []float64{-1, 1, 1, -1, 1}
	for i := range dst {
		if dst[i] != expect[i] {
			t.Fatalf("UnpackSigns[%d] = %v", i, dst[i])
		}
	}
}

func TestPackSignsReuses(t *testing.T) {
	v := New(3)
	v.Set(0, true)
	v.PackSigns([]float64{-1, 2, -3})
	if v.String() != "010" {
		t.Fatalf("PackSigns: %s", v.String())
	}
}

func TestAddSignsInto(t *testing.T) {
	v := FromSigns([]float64{1, -1, 1})
	dst := []float64{10, 10, 10}
	v.AddSignsInto(dst)
	if dst[0] != 11 || dst[1] != 9 || dst[2] != 11 {
		t.Fatalf("AddSignsInto: %v", dst)
	}
}

func TestMarshalRoundtripProperty(t *testing.T) {
	r := rng.New(5)
	f := func(nRaw uint16) bool {
		n := int(nRaw % 300)
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, r.Bernoulli(0.5))
		}
		got, err := unmarshal(v.Marshal())
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := unmarshal([]byte{1, 2}); err == nil {
		t.Fatal("short header accepted")
	}
	v := New(100)
	data := v.Marshal()
	if _, err := unmarshal(data[:8]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestWireBytes(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 8: 1, 9: 2, 64: 8, 65: 9}
	for n, want := range cases {
		if got := New(n).WireBytes(); got != want {
			t.Fatalf("WireBytes(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFillBernoulliRate(t *testing.T) {
	r := rng.New(77)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		v := New(50000)
		v.FillBernoulli(r, p)
		got := float64(v.OnesCount()) / 50000
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("FillBernoulli(%v) rate %v", p, got)
		}
	}
}

func TestFillBernoulliTail(t *testing.T) {
	r := rng.New(78)
	v := New(67)
	v.FillBernoulli(r, 1)
	if v.OnesCount() != 67 {
		t.Fatalf("tail bits leaked: %d", v.OnesCount())
	}
}

// TestMerge3Truth exhaustively checks the ⊙ truth table:
// agree → keep; disagree → transient decides.
func TestMerge3Truth(t *testing.T) {
	for _, tc := range []struct {
		recv, local, trans, want bool
	}{
		{true, true, false, true},    // both 1 → 1
		{true, true, true, true},     // both 1 → 1
		{false, false, false, false}, // both 0 → 0
		{false, false, true, false},  // both 0 → 0
		{true, false, true, true},    // disagree → transient 1
		{true, false, false, false},  // disagree → transient 0
		{false, true, true, true},    // disagree → transient 1
		{false, true, false, false},  // disagree → transient 0
	} {
		v := New(1)
		l := New(1)
		tr := New(1)
		v.Set(0, tc.recv)
		l.Set(0, tc.local)
		tr.Set(0, tc.trans)
		v.Merge3(l, tr)
		if v.Get(0) != tc.want {
			t.Fatalf("Merge3(%v,%v,%v) = %v, want %v",
				tc.recv, tc.local, tc.trans, v.Get(0), tc.want)
		}
	}
}

// TestMerge3Unbiased verifies the induction behind the paper's Eq. (2):
// merging a received bit with P(1)=k/(m-1) against a local bit using a
// transient drawn with the prescribed probabilities yields P(1)=k'/m.
func TestMerge3Unbiased(t *testing.T) {
	r := rng.New(99)
	const trials = 60000
	// Received covers m-1 = 3 workers of which k = 2 are positive.
	// Local worker is positive: expect P(1) = 3/4.
	m := 4
	ones := 0
	for i := 0; i < trials; i++ {
		v := New(1)
		v.Set(0, r.Float64() < 2.0/3.0)
		l := New(1)
		l.Set(0, true)
		tr := New(1)
		tr.FillBernoulli(r, 1.0/float64(m)) // local bit is 1 → p = 1/m
		v.Merge3(l, tr)
		if v.Get(0) {
			ones++
		}
	}
	got := float64(ones) / trials
	if math.Abs(got-0.75) > 0.01 {
		t.Fatalf("merged P(1) = %v, want 0.75", got)
	}
}

func TestStringRendering(t *testing.T) {
	v := New(4)
	v.Set(1, true)
	v.Set(3, true)
	if v.String() != "0101" {
		t.Fatalf("String: %s", v.String())
	}
}

func BenchmarkMerge3(b *testing.B) {
	r := rng.New(1)
	v := New(1 << 16)
	l := New(1 << 16)
	tr := New(1 << 16)
	v.FillBernoulli(r, 0.5)
	l.FillBernoulli(r, 0.5)
	tr.FillBernoulli(r, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Merge3(l, tr)
	}
}

func BenchmarkPackSigns(b *testing.B) {
	r := rng.New(1)
	src := r.NormVec(make([]float64, 1<<16), 0, 1)
	v := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.PackSigns(src)
	}
}

// unmarshal decodes a Marshal frame into a fresh vector.
func unmarshal(data []byte) (*Vec, error) {
	v := new(Vec)
	if err := UnmarshalInto(v, data); err != nil {
		return nil, err
	}
	return v, nil
}
