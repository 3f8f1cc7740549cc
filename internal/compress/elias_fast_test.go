package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"marsit/internal/rng"
)

// This file pins the byte-batched bit I/O fast paths to scalar per-bit
// reference implementations. The scalars below are the oracle — they
// are the original WriteBit/ReadBit loops — and the fuzz targets drive
// the batched WriteBits/writeZeros/ReadBits/EliasGammaDecode against
// them on adversarial streams.

// refWriteBits is the scalar WriteBits oracle: one WriteBit per bit.
func refWriteBits(w *BitWriter, v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(uint(v>>uint(i)) & 1)
	}
}

// refGammaEncode is the scalar gamma encoder oracle.
func refGammaEncode(w *BitWriter, v uint64) {
	n := 0
	for x := v; x > 1; x >>= 1 {
		n++
	}
	for i := 0; i < n; i++ {
		w.WriteBit(0)
	}
	refWriteBits(w, v, n+1)
}

// refReadBits is the scalar ReadBits oracle: one ReadBit per bit.
func refReadBits(r *BitReader, n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// refGammaDecode is the scalar gamma decoder oracle (the pre-
// optimization bit-by-bit loop, including its error cases).
func refGammaDecode(r *BitReader) (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 64 {
			return 0, fmt.Errorf("compress: gamma prefix too long")
		}
	}
	rest, err := refReadBits(r, zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// FuzzBitWriterAgainstScalar interleaves WriteBits calls of arbitrary
// widths and values on the fast writer and the scalar oracle and
// demands identical streams and bit counts.
func FuzzBitWriterAgainstScalar(f *testing.F) {
	f.Add([]byte{1, 0xff, 9, 0x12, 64, 0xab})
	f.Add([]byte{0, 0, 7, 1, 8, 0x80, 13, 0x55})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fast, ref := &BitWriter{}, &BitWriter{}
		for i := 0; i+1 < len(raw) && i < 128; i += 2 {
			n := int(raw[i]) % 66 // widths past 64 exercise the zero-fill path
			v := uint64(raw[i+1]) * 0x9e3779b97f4a7c15
			fast.WriteBits(v, n)
			refWriteBits(ref, v, n)
			if fast.Len() != ref.Len() {
				t.Fatalf("bit count %d, oracle %d", fast.Len(), ref.Len())
			}
		}
		if !bytes.Equal(fast.Bytes(), ref.Bytes()) {
			t.Fatalf("stream %x, oracle %x", fast.Bytes(), ref.Bytes())
		}
	})
}

// FuzzGammaAgainstScalar encodes arbitrary values with the fast gamma
// encoder vs the scalar oracle, then decodes the shared stream with
// both decoders, checking streams, values and GammaBitLen agree.
func FuzzGammaAgainstScalar(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 0, 64)
	for _, v := range []uint64{1, 2, 3, 255, 1 << 33, ^uint64(0)} {
		seed = binary.LittleEndian.AppendUint64(seed, v)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var vals []uint64
		for i := 0; i+8 <= len(raw) && len(vals) < 256; i += 8 {
			if v := binary.LittleEndian.Uint64(raw[i:]); v != 0 {
				vals = append(vals, v)
			}
		}
		fast, ref := &BitWriter{}, &BitWriter{}
		wantBits := 0
		for _, v := range vals {
			EliasGammaEncode(fast, v)
			refGammaEncode(ref, v)
			wantBits += GammaBitLen(v)
		}
		if !bytes.Equal(fast.Bytes(), ref.Bytes()) || fast.Len() != ref.Len() {
			t.Fatalf("encoded stream diverges from scalar oracle")
		}
		if fast.Len() != wantBits {
			t.Fatalf("stream is %d bits, GammaBitLen sums to %d", fast.Len(), wantBits)
		}
		fr, rr := NewBitReader(fast.Bytes()), NewBitReader(ref.Bytes())
		for i, v := range vals {
			got, err := EliasGammaDecode(fr)
			want, refErr := refGammaDecode(rr)
			if err != nil || refErr != nil {
				t.Fatalf("value %d: decode err %v, oracle err %v", i, err, refErr)
			}
			if got != v || want != v {
				t.Fatalf("value %d: fast %d, oracle %d, want %d", i, got, want, v)
			}
		}
	})
}

// FuzzGammaDecodeAgainstScalar throws arbitrary bytes at both decoders:
// they must agree on every decoded value and on whether each read
// errors (messages may differ, error presence may not).
func FuzzGammaDecodeAgainstScalar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0x00, 0x80, 0x01})
	f.Add(bytes.Repeat([]byte{0}, 10)) // > 64-zero prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ref := NewBitReader(data), NewBitReader(data)
		for i := 0; i < 2048; i++ {
			got, err := EliasGammaDecode(fast)
			want, refErr := refGammaDecode(ref)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("read %d: fast err %v, oracle err %v", i, err, refErr)
			}
			if err != nil {
				return
			}
			if got != want {
				t.Fatalf("read %d: fast %d, oracle %d", i, got, want)
			}
		}
	})
}

// FuzzEliasIntsIntoAgainstScalar throws arbitrary bytes at the windowed
// integer decoder and a scalar per-value loop: decoded values and error
// presence must agree everywhere. The decode-add entry point runs on the
// same bytes (dst[i] += v_i must equal decode-then-add, with the same
// error presence), and both repeat with 1–8 bytes appended, which moves
// the point where the window stops refilling a word at a time across
// every offset from the last code.
func FuzzEliasIntsIntoAgainstScalar(f *testing.F) {
	f.Add([]byte{}, uint16(3))
	f.Add([]byte{0x00, 0x00}, uint16(1))
	f.Add([]byte{0xff, 0xff, 0x01}, uint16(17))
	f.Add(bytes.Repeat([]byte{0}, 12), uint16(1)) // > 64-zero prefix
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f}, uint16(24))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint16) {
		n := int(nRaw) % 1024
		for pad := 0; pad <= 8; pad++ {
			data := append(raw[:len(raw):len(raw)], bytes.Repeat([]byte{0xff}, pad)...)
			got := make([]int64, n)
			err := EliasDecodeIntsInto(data, got)

			want := make([]int64, n)
			r := NewBitReader(data)
			var refErr error
			for i := range want {
				u, e := refGammaDecode(r)
				if e != nil {
					refErr = e
					break
				}
				want[i] = UnZigZag(u)
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("pad %d: fast err %v, oracle err %v", pad, err, refErr)
			}

			sum := make([]int64, n)
			for i := range sum {
				sum[i] = int64(i)*0x9e3779b9 - 7
			}
			addErr := EliasDecodeAddInto(data, sum)
			if (addErr == nil) != (refErr == nil) {
				t.Fatalf("pad %d: decode-add err %v, oracle err %v", pad, addErr, refErr)
			}
			if err != nil {
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pad %d value %d: fast %d, oracle %d", pad, i, got[i], want[i])
				}
				if base := int64(i)*0x9e3779b9 - 7; sum[i] != base+want[i] {
					t.Fatalf("pad %d value %d: decode-add %d, want %d + %d", pad, i, sum[i], base, want[i])
				}
			}
		}
	})
}

// uintsFromBytes derives gamma-codable values of every width from fuzz
// input: nine bytes a value, the first choosing the bit length 1…64 and
// the other eight the bits below the leading one — raw 8-byte values
// would almost all be 64 bits wide and never meet the 56-bit edge of the
// encoder's word path.
func uintsFromBytes(raw []byte) []uint64 {
	var us []uint64
	for i := 0; i+9 <= len(raw) && len(us) < 256; i += 9 {
		n := uint(raw[i])%64 + 1
		us = append(us, (binary.LittleEndian.Uint64(raw[i+1:])|1<<63)>>(64-n))
	}
	return us
}

// FuzzEliasEncodeBufAgainstScalar pins EliasEncodeIntsBuf — word path,
// byte drain and the hand-over between them at the end of the buffer —
// to the per-bit oracle: for dirty scratch of capacity 0, 1 and every
// size from nine bytes short of the stream to nine past it, the bytes and
// the bit count equal a refGammaEncode loop's, and a scratch that has
// room for the stream is written in place (the pooled sign-sum payload
// relies on that: it ignores the returned slice).
func FuzzEliasEncodeBufAgainstScalar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	var seed []byte
	for _, n := range []byte{28, 29, 55, 56, 57, 58, 64, 1, 3, 2} { // code widths 55, 57, 109 … 127, 1, 5, 3
		seed = append(seed, n-1)
		seed = binary.LittleEndian.AppendUint64(seed, ^uint64(0))
	}
	f.Add(seed) // includes ZigZag(MaxInt64), the all-ones 64-bit value
	f.Add(bytes.Repeat([]byte{2, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0}, 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		us := uintsFromBytes(raw)
		vals := make([]int64, len(us))
		ref := &BitWriter{}
		for i, u := range us {
			vals[i] = UnZigZag(u)
			refGammaEncode(ref, u)
		}
		need := len(ref.Bytes())
		caps := []int{0, 1}
		for c := need - 9; c <= need+9; c++ {
			if c > 1 {
				caps = append(caps, c)
			}
		}
		for _, c := range caps {
			scratch := bytes.Repeat([]byte{0xa5}, c)
			enc, bitLen := EliasEncodeIntsBuf(vals, scratch)
			if bitLen != ref.Len() {
				t.Fatalf("cap %d: %d bits, oracle %d", c, bitLen, ref.Len())
			}
			if !bytes.Equal(enc, ref.Bytes()) {
				t.Fatalf("cap %d: stream %x, oracle %x", c, enc, ref.Bytes())
			}
			if need > 0 && c >= need && &enc[0] != &scratch[0] {
				t.Fatalf("cap %d: a %d-byte stream left its scratch", c, need)
			}
		}
	})
}

// TestEliasDecodeIntsInto checks the allocation-free decode form and
// the exact-sizing helper against the allocating entry points.
func TestEliasDecodeIntsInto(t *testing.T) {
	vals := []int64{0, 1, -1, 7, -300, 1 << 40, -(1 << 50), 63}
	enc, bitLen := EliasEncodeInts(vals)
	if want := EliasIntsBitLen(vals); bitLen != want {
		t.Fatalf("encode reports %d bits, EliasIntsBitLen %d", bitLen, want)
	}
	out := make([]int64, len(vals))
	if err := EliasDecodeIntsInto(enc, out); err != nil {
		t.Fatalf("decode into: %v", err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("value %d: %d → %d", i, vals[i], out[i])
		}
	}
	// The scratch-reusing encoder produces the identical stream.
	scratch := make([]byte, 3) // deliberately small and dirty
	scratch[0] = 0xff
	enc2, bitLen2 := EliasEncodeIntsBuf(vals, scratch)
	if bitLen2 != bitLen || !bytes.Equal(enc, enc2) {
		t.Fatalf("EliasEncodeIntsBuf diverges from EliasEncodeInts")
	}
}

// TestEliasDecodeAddInto checks the fused decode-add against decode then
// add — on a stream followed by 0–8 stray bytes, so the last codes are
// reached by the word refill, the byte refill and every split between
// them — and that both entry points fail together on a cut stream.
func TestEliasDecodeAddInto(t *testing.T) {
	vals := append(benchVals(300), 0, 1<<40, -(1 << 50), 63, -4, 1<<62, 2)
	enc, _ := EliasEncodeInts(vals)
	for pad := 0; pad <= 8; pad++ {
		data := append(enc[:len(enc):len(enc)], bytes.Repeat([]byte{0x5a}, pad)...)
		dst := make([]int64, len(vals))
		for i := range dst {
			dst[i] = int64(3*i) - 100
		}
		if err := EliasDecodeAddInto(data, dst); err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		for i, v := range vals {
			if want := int64(3*i) - 100 + v; dst[i] != want {
				t.Fatalf("pad %d value %d: %d, want %d", pad, i, dst[i], want)
			}
		}
	}
	for cut := 1; cut <= 9; cut++ {
		data := enc[:len(enc)-cut]
		dst := make([]int64, len(vals))
		if EliasDecodeAddInto(data, dst) == nil || EliasDecodeIntsInto(data, dst) == nil {
			t.Fatalf("stream cut by %d bytes decoded without error", cut)
		}
	}
}

// ---------------------------------------------------------------------------
// Kernel benchmarks: fast vs scalar coder on a sign-sum-like payload.

// benchVals returns n seeded sums of four fair ±1 votes — the values a
// four-rank sign-sum ring ships. Code widths 1, 3 and 5 come in random
// order, as on the wire; a periodic pattern would let the branch
// predictor learn the widths and flatter every width-dependent branch.
func benchVals(n int) []int64 {
	r := rng.New(99)
	vals := make([]int64, n)
	for i := range vals {
		for w := 0; w < 4; w++ {
			vals[i] += 1 - 2*int64(r.Uint64()>>63)
		}
	}
	return vals
}

func BenchmarkEliasEncodeInts(b *testing.B) {
	vals := benchVals(100_000)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		var scratch []byte
		for i := 0; i < b.N; i++ {
			scratch, _ = EliasEncodeIntsBuf(vals, scratch)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := &BitWriter{}
			for _, v := range vals {
				refGammaEncode(w, ZigZag(v))
			}
		}
	})
}

func BenchmarkEliasDecodeInts(b *testing.B) {
	vals := benchVals(100_000)
	enc, _ := EliasEncodeInts(vals)
	out := make([]int64, len(vals))
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := EliasDecodeIntsInto(enc, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast-add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := EliasDecodeAddInto(enc, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewBitReader(enc)
			for j := range out {
				u, err := refGammaDecode(r)
				if err != nil {
					b.Fatal(err)
				}
				out[j] = UnZigZag(u)
			}
		}
	})
}
