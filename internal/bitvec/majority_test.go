package bitvec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"marsit/internal/rng"
)

// refMajority is the scalar majority-vote oracle: the parameter-server
// hub's vote as it stood before the bit-sliced counter, one signed
// counter per element and one Get/Set per bit, kept verbatim.
func refMajority(d int, in []*Vec) *Vec {
	votes := make([]int, d)
	for _, b := range in {
		for i := 0; i < d; i++ {
			if b.Get(i) {
				votes[i]++
			} else {
				votes[i]--
			}
		}
	}
	majority := New(d)
	for i, v := range votes {
		majority.Set(i, v >= 0)
	}
	return majority
}

// tailClear reports whether the bits of the last word beyond Len are 0.
func tailClear(v *Vec) bool {
	if rem := uint(v.n & 63); rem != 0 {
		return v.words[len(v.words)-1]>>rem == 0
	}
	return true
}

// FuzzMajorityAgainstScalar pins the bit-sliced vote to the per-element
// counters for any number of voters (odd, even — where ties go to 1 —
// and across every plane count up to six), any length and any bias of
// the votes, and checks the result keeps its tail bits clear.
func FuzzMajorityAgainstScalar(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for m := 1; m <= 33; m++ {
			f.Add(uint64(n+m), uint16(n), uint8(m), uint8(128))
		}
		f.Add(uint64(n), uint16(n), uint8(4), uint8(10))
		f.Add(uint64(n), uint16(n), uint8(32), uint8(250))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, mRaw, bias uint8) {
		n := int(nRaw) % 2049
		m := int(mRaw)%33 + 1
		r := rng.New(seed)
		in := make([]*Vec, m)
		for k := range in {
			in[k] = New(n)
			in[k].FillBernoulli(r, float64(bias)/255)
		}
		got := New(n)
		got.FillBernoulli(r, 0.5) // Majority overwrites whatever v held
		got.Majority(in)
		if want := refMajority(n, in); !got.Equal(want) {
			t.Fatalf("n=%d M=%d: bit-sliced majority diverges from the per-element vote\n got %v\nwant %v", n, m, got, want)
		}
		if !tailClear(got) {
			t.Fatalf("n=%d M=%d: majority left tail bits set", n, m)
		}
	})
}

// FuzzUnmarshalRobust feeds the frame decoder arbitrary bytes, as a
// hostile or corrupted peer would: it must answer with a vector that
// fits the payload and keeps its tail clear, or an error — never panic
// and never trust the length header beyond the bytes that came with it.
func FuzzUnmarshalRobust(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 0xff, 0xff})
	f.Add([]byte{9, 0, 0, 0, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(fuzzVec(65, 65).Marshal())
	f.Add(append(fuzzVec(64, 64).Marshal(), 0xaa, 0xbb))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := unmarshal(data)
		// Decoding into a vector that held other bits agrees with decoding
		// into a fresh one, and leaves that vector alone when it refuses
		// the frame.
		into := fuzzVec(7, 130)
		if errI := UnmarshalInto(into, data); (errI == nil) != (err == nil) {
			t.Fatalf("UnmarshalInto err %v, into a fresh vector %v", errI, err)
		} else if err == nil && !into.Equal(v) {
			t.Fatalf("UnmarshalInto decoded %v, into a fresh vector %v", into, v)
		} else if err != nil && !into.Equal(fuzzVec(7, 130)) {
			t.Fatal("a refused frame changed the UnmarshalInto target")
		}
		// UnmarshalSigns, given the length the header claims, accepts and
		// rejects the same frames, and never one of another length.
		if len(data) >= 4 {
			if n := binary.LittleEndian.Uint32(data); n <= 1<<16 {
				if errS := UnmarshalSigns(data, make([]float64, n)); (errS == nil) != (err == nil) {
					t.Fatalf("UnmarshalSigns err %v, UnmarshalInto err %v", errS, err)
				}
				if UnmarshalSigns(data, make([]float64, n+1)) == nil {
					t.Fatalf("a %d-bit frame unmarshalled into %d signs", n, n+1)
				}
			}
		}
		if err != nil {
			return
		}
		if v.Len() > 8*(len(data)-4) {
			t.Fatalf("%d payload bytes decoded to %d bits", len(data)-4, v.Len())
		}
		if !tailClear(v) {
			t.Fatalf("%d-bit vector decoded with tail bits set", v.Len())
		}
		// A whole number of bytes has no tail to clear: it must decode
		// losslessly.
		if v.Len()&7 == 0 {
			if back := v.Marshal(); !bytes.Equal(back, data[:len(back)]) {
				t.Fatalf("%d-bit vector does not re-marshal to the frame it came from", v.Len())
			}
		}
	})
}

// TestUnpackScaledUnitIsUnpackSigns pins the one-bit tree's unpack,
// UnpackScaled at unit scale (Update{Scale: 1}.Dense), to UnpackSigns' ±1
// bit for bit, on both sides of a word edge.
func TestUnpackScaledUnitIsUnpackSigns(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		bits := fuzzVec(uint64(n)^0x0e1, n)
		got, want := make([]float64, n), make([]float64, n)
		bits.UnpackScaled(got, 1)
		bits.UnpackSigns(want)
		requireSameBits(t, fmt.Sprintf("UnpackScaled(·, 1) n=%d", n), got, want)
	}
}

// TestUnmarshalIntoReusesWords decodes frames of changing length into one
// vector, the one-bit ring's per-hop use: every decode equals the source,
// keeps its tail clear, and a length that fits the words it has keeps
// them. Resize alone leaves an all-zero vector of the new length.
func TestUnmarshalIntoReusesWords(t *testing.T) {
	dst := new(Vec)
	for i, n := range []int{130, 65, 64, 1, 0, 129, 200} {
		src := fuzzVec(uint64(i), n)
		before := cap(dst.words)
		if err := UnmarshalInto(dst, src.Marshal()); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(src) || !tailClear(dst) {
			t.Fatalf("n=%d: decoded %v, sent %v", n, dst, src)
		}
		if fits := (n+63)/64 <= before; fits != (cap(dst.words) == before) {
			t.Fatalf("n=%d: word capacity %d → %d", n, before, cap(dst.words))
		}
		dst.Resize(n)
		if dst.Len() != n || dst.OnesCount() != 0 {
			t.Fatalf("Resize(%d): length %d, %d bits set", n, dst.Len(), dst.OnesCount())
		}
	}
}

// TestUnpackScaledMatchesUnpackScaledSub pins the write-only unpack to
// the fused one a one-bit round used to run (the unpackScaledSub oracle),
// and to plain negation for a scale whose own sign bit is set.
func TestUnpackScaledMatchesUnpackScaledSub(t *testing.T) {
	for _, n := range append([]int{0}, fuzzVecLens...) {
		bits := fuzzVec(uint64(n)^0x5ca1e, n)
		got, want := make([]float64, n), make([]float64, n)
		bits.UnpackScaled(got, 0.04)
		unpackScaledSub(bits, want, make([]float64, n), 0.04)
		requireSameBits(t, "UnpackScaled", got, want)

		for _, scale := range []float64{0, math.Copysign(0, -1), -2.5, math.Inf(1)} {
			bits.UnpackScaled(got, scale)
			for i := range want {
				want[i] = -scale
				if bits.Get(i) {
					want[i] = scale
				}
			}
			requireSameBits(t, "UnpackScaled", got, want)
		}
	}
}

func BenchmarkMajority(b *testing.B) {
	const m = 4
	in := make([]*Vec, m)
	for k := range in {
		in[k] = fuzzVec(uint64(k)+40, benchBits)
	}
	v := New(benchBits)
	b.Run("word", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.Majority(in)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = refMajority(benchBits, in)
		}
	})
}
