package bitvec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"marsit/internal/rng"
)

// This file pins the word-parallel kernels to per-bit scalar reference
// implementations: the scalars below are the oracle (they mirror the
// pre-optimization loops bit for bit), and the fuzz targets drive the
// fast paths against them on adversarial inputs — including the IEEE
// edge cases (−0.0, NaN, ±Inf) where a sign-bit shortcut would diverge
// from the repository-wide `x >= 0` convention.

// refPackSigns is the scalar PackSigns oracle.
func refPackSigns(v *Vec, src []float64) {
	for i := range v.words {
		v.words[i] = 0
	}
	for i, x := range src {
		if x >= 0 {
			v.words[i>>6] |= 1 << uint(i&63)
		}
	}
}

// refUnpackSigns is the scalar UnpackSigns oracle.
func refUnpackSigns(v *Vec, dst []float64) {
	for i := range dst {
		if v.words[i>>6]&(1<<uint(i&63)) != 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
}

// refAddSignsInto is the scalar AddSignsInto oracle.
func refAddSignsInto(v *Vec, dst []float64) {
	for i := range dst {
		if v.words[i>>6]&(1<<uint(i&63)) != 0 {
			dst[i]++
		} else {
			dst[i]--
		}
	}
}

// refExtract is the scalar Extract oracle.
func refExtract(v *Vec, lo, hi int) *Vec {
	out := New(hi - lo)
	for i := lo; i < hi; i++ {
		if v.Get(i) {
			out.Set(i-lo, true)
		}
	}
	return out
}

// refInsert is the scalar Insert oracle.
func refInsert(v *Vec, lo int, src *Vec) {
	for i := 0; i < src.n; i++ {
		v.Set(lo+i, src.Get(i))
	}
}

// refMarshalInto is the scalar byte-at-a-time MarshalInto oracle.
func refMarshalInto(v *Vec, out []byte) {
	binary.LittleEndian.PutUint32(out, uint32(v.n))
	for i := 0; i < v.WireBytes(); i++ {
		out[4+i] = byte(v.words[i>>3] >> uint((i&7)*8))
	}
}

// fuzzVecLens are the vector lengths the seed corpus covers: word
// boundaries, off-by-ones around them, and a tail-heavy size.
var fuzzVecLens = []int{1, 7, 63, 64, 65, 127, 128, 129, 200}

// signEdgeCases are float values whose sign classification must follow
// the `x >= 0` comparison, not the IEEE sign bit.
var signEdgeCases = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -1.5}

func fuzzFloats(seed uint64, n int) []float64 {
	r := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Norm()
		if i%11 == 3 {
			out[i] = signEdgeCases[i%len(signEdgeCases)]
		}
	}
	return out
}

func fuzzVec(seed uint64, n int) *Vec {
	v := New(n)
	v.FillBernoulli(rng.New(seed), 0.5)
	return v
}

func FuzzPackUnpackSigns(f *testing.F) {
	for _, n := range fuzzVecLens {
		f.Add(uint64(n), uint16(n))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16) {
		n := int(nRaw)%512 + 1
		src := fuzzFloats(seed, n)

		fast, ref := New(n), New(n)
		fast.PackSigns(src)
		refPackSigns(ref, src)
		if !fast.Equal(ref) {
			t.Fatalf("PackSigns diverges from scalar oracle at n=%d", n)
		}
		if !FromSigns(src).Equal(ref) {
			t.Fatalf("FromSigns diverges from scalar oracle at n=%d", n)
		}

		gotU, wantU := make([]float64, n), make([]float64, n)
		fast.UnpackSigns(gotU)
		refUnpackSigns(ref, wantU)
		for i := range gotU {
			if gotU[i] != wantU[i] {
				t.Fatalf("UnpackSigns[%d] = %v, oracle %v", i, gotU[i], wantU[i])
			}
		}

		gotA, wantA := fuzzFloats(seed^0x5ca1e, n), fuzzFloats(seed^0x5ca1e, n)
		fast.AddSignsInto(gotA)
		refAddSignsInto(ref, wantA)
		for i := range gotA {
			if math.Float64bits(gotA[i]) != math.Float64bits(wantA[i]) {
				t.Fatalf("AddSignsInto[%d] = %v, oracle %v", i, gotA[i], wantA[i])
			}
		}
	})
}

func FuzzExtractInsert(f *testing.F) {
	for _, n := range fuzzVecLens {
		f.Add(uint64(n), uint16(n), uint16(0), uint16(n))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, loRaw, hiRaw uint16) {
		n := int(nRaw)%512 + 1
		lo := int(loRaw) % n
		hi := lo + int(hiRaw)%(n-lo+1)
		v := fuzzVec(seed, n)

		got := extract(v, lo, hi)
		want := refExtract(v, lo, hi)
		if !got.Equal(want) {
			t.Fatalf("Extract[%d,%d) of %d diverges from scalar oracle", lo, hi, n)
		}

		fast, ref := fuzzVec(seed^0xbeef, n), fuzzVec(seed^0xbeef, n)
		fast.Insert(lo, got)
		refInsert(ref, lo, want)
		if !fast.Equal(ref) {
			t.Fatalf("Insert of %d bits at %d into %d diverges from scalar oracle", got.Len(), lo, n)
		}
	})
}

func FuzzMarshalRoundTrip(f *testing.F) {
	for _, n := range fuzzVecLens {
		f.Add(uint64(n), uint16(n))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16) {
		n := int(nRaw)%512 + 1
		v := fuzzVec(seed, n)

		got := make([]byte, v.MarshalBytes())
		want := make([]byte, v.MarshalBytes())
		v.MarshalInto(got)
		refMarshalInto(v, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MarshalInto byte %d = %#x, oracle %#x", i, got[i], want[i])
			}
		}

		back, err := unmarshal(got)
		if err != nil {
			t.Fatalf("UnmarshalInto: %v", err)
		}
		if !back.Equal(v) {
			t.Fatalf("marshal round trip diverges at n=%d", n)
		}

		// The vector-free forms write and read the same frame: signs (and
		// the integer votes with the same signs, which PackVotes packs as
		// FromSigns does) marshal as FromSigns would, and a frame
		// unmarshals to what UnpackSigns would write.
		src := fuzzFloats(seed, n)
		votes := make([]int64, n)
		for i, x := range src {
			votes[i] = -1
			if x >= 0 {
				votes[i] = int64(i % 3) // 0 votes +1 too
			}
		}
		packed := New(n)
		packed.Not() // stale bits must be overwritten
		packed.PackVotes(votes)
		if !packed.Equal(FromSigns(src)) {
			t.Fatalf("PackVotes diverges from FromSigns at n=%d", n)
		}
		frame := FromSigns(src).Marshal()
		fromSigns, fromVotes := make([]byte, len(frame)), make([]byte, len(frame))
		MarshalSigns(fromSigns, src)
		MarshalSigns(fromVotes, votes)
		if !bytes.Equal(fromSigns, frame) || !bytes.Equal(fromVotes, frame) {
			t.Fatalf("MarshalSigns diverges from FromSigns + Marshal at n=%d:\nsigns %x\nvotes %x\n want %x", n, fromSigns, fromVotes, frame)
		}
		gotS, wantS := make([]float64, n), make([]float64, n)
		if err := UnmarshalSigns(got, gotS); err != nil {
			t.Fatalf("UnmarshalSigns: %v", err)
		}
		refUnpackSigns(v, wantS)
		for i := range wantS {
			if gotS[i] != wantS[i] {
				t.Fatalf("UnmarshalSigns[%d] = %v, oracle %v (n=%d)", i, gotS[i], wantS[i], n)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Kernel benchmarks: the word-parallel fast paths against the scalar
// oracles, at the one-bit wire path's typical segment sizes.

const benchBits = 100_003 // deliberately word-unaligned

func BenchmarkPackSignsKernel(b *testing.B) {
	src := fuzzFloats(1, benchBits)
	v := New(benchBits)
	b.Run("word", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.PackSigns(src)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refPackSigns(v, src)
		}
	})
}

func BenchmarkUnpackSigns(b *testing.B) {
	v := fuzzVec(2, benchBits)
	dst := make([]float64, benchBits)
	b.Run("word", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.UnpackSigns(dst)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refUnpackSigns(v, dst)
		}
	})
}

func BenchmarkExtract(b *testing.B) {
	v := fuzzVec(3, benchBits)
	lo, hi := 17, benchBits-19 // misaligned on both ends
	b.Run("word", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = extract(v, lo, hi)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = refExtract(v, lo, hi)
		}
	})
}
