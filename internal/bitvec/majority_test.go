package bitvec

import (
	"bytes"
	"encoding/binary"
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
		v, err := Unmarshal(data)
		// UnmarshalSigns, given the length the header claims, accepts and
		// rejects the same frames, and never one of another length.
		if len(data) >= 4 {
			if n := int(binary.LittleEndian.Uint32(data)); n <= 1<<16 {
				if errS := UnmarshalSigns(data, make([]float64, n)); (errS == nil) != (err == nil) {
					t.Fatalf("UnmarshalSigns err %v, Unmarshal err %v", errS, err)
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

// TestUnpackScaledMatchesUnpackScaledSub pins the write-only unpack to
// the fused one it sits beside, and to plain negation for a scale whose
// own sign bit is set.
func TestUnpackScaledMatchesUnpackScaledSub(t *testing.T) {
	for _, n := range append([]int{0}, fuzzVecLens...) {
		bits := fuzzVec(uint64(n)^0x5ca1e, n)
		got, want := make([]float64, n), make([]float64, n)
		bits.UnpackScaled(got, 0.04)
		bits.UnpackScaledSub(want, make([]float64, n), 0.04)
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
