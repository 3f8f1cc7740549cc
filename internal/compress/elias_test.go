package compress

import (
	"testing"
	"testing/quick"

	"marsit/internal/rng"
)

func TestBitWriterReaderRoundtrip(t *testing.T) {
	w := &BitWriter{}
	w.WriteBits(0b1011, 4)
	w.WriteBit(1)
	w.WriteBits(0xFF, 8)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("ReadBits(4) = %b", v)
	}
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("ReadBit")
	}
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Fatalf("ReadBits(8) = %x", v)
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xAA})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read past end succeeded")
	}
}

func TestGammaKnownCodes(t *testing.T) {
	// Classic gamma codes: 1→"1", 2→"010", 3→"011", 4→"00100".
	for _, tc := range []struct {
		v    uint64
		bits int
	}{
		{1, 1}, {2, 3}, {3, 3}, {4, 5}, {16, 9}, {1 << 30, 61},
	} {
		w := &BitWriter{}
		EliasGammaEncode(w, tc.v)
		if w.Len() != tc.bits {
			t.Fatalf("gamma(%d) length %d, want %d", tc.v, w.Len(), tc.bits)
		}
		got, err := EliasGammaDecode(NewBitReader(w.Bytes()))
		if err != nil || got != tc.v {
			t.Fatalf("gamma roundtrip %d → %d (%v)", tc.v, got, err)
		}
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	EliasGammaEncode(&BitWriter{}, 0)
}

func TestGammaRoundtripProperty(t *testing.T) {
	f := func(v uint64) bool {
		if v == 0 {
			v = 1
		}
		w := &BitWriter{}
		EliasGammaEncode(w, v)
		got, err := EliasGammaDecode(NewBitReader(w.Bytes()))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigZag(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -2, 2, 1 << 40, -(1 << 40)} {
		if got := UnZigZag(ZigZag(v)); got != v {
			t.Fatalf("zigzag roundtrip %d → %d", v, got)
		}
	}
	// Mapping must start at 1 (Elias codes reject 0).
	if ZigZag(0) != 1 {
		t.Fatalf("ZigZag(0) = %d", ZigZag(0))
	}
}

func TestEliasIntsRoundtrip(t *testing.T) {
	vals := []int64{0, 1, -1, 3, -3, 7, -8, 100, -100}
	data, bits := EliasEncodeInts(vals)
	if bits <= 0 || len(data) == 0 {
		t.Fatal("empty encoding")
	}
	got, err := EliasDecodeInts(data, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("vals[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestEliasIntsProperty(t *testing.T) {
	r := rng.New(3)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(65)) - 32 // sign sums for M ≤ 32 workers
		}
		data, _ := EliasEncodeInts(vals)
		got, err := EliasDecodeInts(data, n)
		if err != nil {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEliasBeatsFixedWidth demonstrates why the paper applies Elias
// coding to the overflow baseline: small sign-sums cost fewer bits than
// the fixed ⌈log2 M⌉+1 encoding when the distribution concentrates near
// zero.
func TestEliasBeatsFixedWidth(t *testing.T) {
	r := rng.New(5)
	n := 10000
	vals := make([]int64, n)
	for i := range vals {
		// Sum of 8 random signs concentrates near 0.
		s := int64(0)
		for j := 0; j < 8; j++ {
			if r.Bernoulli(0.5) {
				s++
			} else {
				s--
			}
		}
		vals[i] = s
	}
	_, bits := EliasEncodeInts(vals)
	fixed := n * 5 // ⌈log2 9⌉+1 for range [-8,8]
	if bits >= fixed {
		t.Fatalf("Elias %d bits not under fixed %d bits", bits, fixed)
	}
}

func TestEliasDecodeTruncated(t *testing.T) {
	data, _ := EliasEncodeInts([]int64{100, 200, 300})
	if _, err := EliasDecodeInts(data[:1], 3); err == nil {
		t.Fatal("truncated decode succeeded")
	}
}

func BenchmarkEliasEncode(b *testing.B) {
	r := rng.New(1)
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(r.Intn(17)) - 8
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = EliasEncodeInts(vals)
	}
}
