package bitvec

import (
	"testing"
	"testing/quick"

	"marsit/internal/rng"
)

// extract returns bits [lo, hi) of v as a vector of their own, through
// ExtractInto.
func extract(v *Vec, lo, hi int) *Vec {
	out := New(hi - lo)
	v.ExtractInto(out, lo)
	return out
}

func TestExtractKnown(t *testing.T) {
	v := New(10)
	v.Set(2, true)
	v.Set(3, true)
	v.Set(9, true)
	e := extract(v, 2, 5)
	if e.Len() != 3 || e.String() != "110" {
		t.Fatalf("Extract: %s", e.String())
	}
	// Full range is a clone.
	if !extract(v, 0, 10).Equal(v) {
		t.Fatal("full extract differs")
	}
	// Empty range.
	if extract(v, 4, 4).Len() != 0 {
		t.Fatal("empty extract")
	}
}

func TestInsertKnown(t *testing.T) {
	v := New(8)
	src := New(3)
	src.Set(0, true)
	src.Set(2, true)
	v.Insert(4, src)
	if v.String() != "00001010" {
		t.Fatalf("Insert: %s", v.String())
	}
	// Insert also clears bits that were set.
	v.Not()
	v.Insert(4, src)
	if v.Get(5) {
		t.Fatal("Insert did not clear")
	}
}

func TestExtractInsertRoundtripProperty(t *testing.T) {
	r := rng.New(17)
	f := func(nRaw, loRaw, hiRaw uint8) bool {
		n := int(nRaw%120) + 2
		lo := int(loRaw) % n
		hi := lo + int(hiRaw)%(n-lo) + 1
		if hi > n {
			hi = n
		}
		v := New(n)
		v.FillBernoulli(r, 0.5)
		orig := v.Clone()
		seg := extract(v, lo, hi)
		v.Insert(lo, seg)
		return v.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtractCrossesWordBoundary(t *testing.T) {
	v := New(130)
	v.Set(62, true)
	v.Set(63, true)
	v.Set(64, true)
	v.Set(65, true)
	e := extract(v, 62, 66)
	if e.OnesCount() != 4 {
		t.Fatalf("cross-word extract: %s", e.String())
	}
}

func TestExtractInsertValidation(t *testing.T) {
	v := New(8)
	for _, fn := range []func(){
		func() { extract(v, -1, 3) },
		func() { extract(v, 5, 3) },
		func() { extract(v, 0, 9) },
		func() { v.Insert(6, New(3)) },
		func() { v.Insert(-1, New(2)) },
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
