package compress

import (
	"fmt"
	"math/bits"
)

// The bit-at-a-time writer, the gamma encoder built on it, the exact
// sizing functions and the allocating decode below are oracles: the wire
// coder (EliasEncodeIntsBuf, eliasDecodeInts) is tested against them, and
// no program calls them, so they live with the tests.

// BitWriter accumulates individual bits into a byte slice, MSB-first
// within each byte.
type BitWriter struct {
	buf  []byte
	nbit int
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, most significant first. It
// works a byte at a time — up to 8 bits land per iteration instead of
// one — and is bit-exact with a WriteBit loop (the scalar oracle the
// fuzz tests compare against).
func (w *BitWriter) WriteBits(v uint64, n int) {
	for n > 0 {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbit%8
		take := free
		if n < take {
			take = n
		}
		chunk := byte(v>>uint(n-take)) & (1<<uint(take) - 1)
		w.buf[len(w.buf)-1] |= chunk << uint(free-take)
		w.nbit += take
		n -= take
	}
}

// writeZeros appends n zero bits: the current partial byte is skipped
// over and whole zero bytes are appended directly.
func (w *BitWriter) writeZeros(n int) {
	if rem := w.nbit % 8; rem != 0 {
		take := 8 - rem
		if n < take {
			take = n
		}
		w.nbit += take
		n -= take
	}
	for n > 0 {
		w.buf = append(w.buf, 0)
		take := 8
		if n < take {
			take = n
		}
		w.nbit += take
		n -= take
	}
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return w.nbit }

// Bytes returns the encoded bytes (the final byte may be partially used).
func (w *BitWriter) Bytes() []byte { return w.buf }

// NewBitReader wraps data for reading.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.pos >= 8*len(r.buf) {
		return 0, fmt.Errorf("compress: bit stream exhausted at %d", r.pos)
	}
	b := (r.buf[r.pos/8] >> uint(7-r.pos%8)) & 1
	r.pos++
	return uint(b), nil
}

// EliasGammaEncode appends the Elias gamma code of v (v ≥ 1) to w:
// ⌊log2 v⌋ zeros followed by the binary representation of v.
func EliasGammaEncode(w *BitWriter, v uint64) {
	if v == 0 {
		panic("compress: Elias gamma undefined for 0")
	}
	n := bits.Len64(v) // position of the highest set bit, 1-based
	w.writeZeros(n - 1)
	w.WriteBits(v, n)
}

// GammaBitLen returns the bit length of the gamma code of v ≥ 1
// (2·⌊log2 v⌋ + 1) without producing it.
func GammaBitLen(v uint64) int {
	if v == 0 {
		panic("compress: Elias gamma undefined for 0")
	}
	return 2*bits.Len64(v) - 1
}

// EliasIntsBitLen returns the exact bit length EliasEncodeInts would
// produce for vals, without materializing the code: the oracle of the
// bit count the encoder returns and the decoders report.
func EliasIntsBitLen(vals []int64) int {
	n := 0
	for _, v := range vals {
		n += GammaBitLen(ZigZag(v))
	}
	return n
}

// EliasDecodeInts decodes n signed integers from data.
func EliasDecodeInts(data []byte, n int) ([]int64, error) {
	out := make([]int64, n)
	if err := EliasDecodeIntsInto(data, out); err != nil {
		return nil, err
	}
	return out, nil
}
