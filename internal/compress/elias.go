package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file implements Elias universal codes (Elias, IEEE Trans. IT 1975),
// which the paper uses "to compact the transmission message among nodes"
// for the baselines whose per-element payload grows to ⌈log2 M⌉ bits
// (the SSDM bit-width-expansion scheme). Gamma codes suit small positive
// integers such as per-coordinate sign sums.

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

// BitReader consumes bits produced by BitWriter.
type BitReader struct {
	buf []byte
	pos int
}

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

// ReadBits reads n bits MSB-first, a byte at a time (bit-exact with a
// ReadBit loop, the scalar oracle of the fuzz tests).
func (r *BitReader) ReadBits(n int) (uint64, error) {
	if n <= 0 {
		return 0, nil
	}
	if r.pos+n > 8*len(r.buf) {
		r.pos = 8 * len(r.buf)
		return 0, fmt.Errorf("compress: bit stream exhausted at %d", r.pos)
	}
	var v uint64
	for n > 0 {
		rem := 8 - r.pos%8
		take := rem
		if n < take {
			take = n
		}
		chunk := uint64(r.buf[r.pos/8]>>uint(rem-take)) & (1<<uint(take) - 1)
		v = v<<uint(take) | chunk
		r.pos += take
		n -= take
	}
	return v, nil
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
// (2·⌊log2 v⌋ + 1) without producing it — the sizing half of the
// encoder, so a caller can charge a payload's exact wire size before
// (or without) materializing the code.
func GammaBitLen(v uint64) int {
	if v == 0 {
		panic("compress: Elias gamma undefined for 0")
	}
	return 2*bits.Len64(v) - 1
}

// EliasGammaDecode reads one gamma-coded value. The zero-run prefix is
// scanned a byte at a time with a leading-zero count instead of bit by
// bit; behaviour (values, error cases) matches the scalar ReadBit loop.
func EliasGammaDecode(r *BitReader) (uint64, error) {
	zeros := 0
	for {
		if r.pos >= 8*len(r.buf) {
			return 0, fmt.Errorf("compress: bit stream exhausted at %d", r.pos)
		}
		rem := 8 - r.pos%8
		b := uint(r.buf[r.pos/8]) & (1<<uint(rem) - 1)
		if b == 0 {
			zeros += rem
			r.pos += rem
			if zeros > 64 {
				return 0, fmt.Errorf("compress: gamma prefix too long")
			}
			continue
		}
		lead := rem - bits.Len(b)
		zeros += lead
		r.pos += lead + 1 // the zero run and its terminating 1
		if zeros > 64 {
			return 0, fmt.Errorf("compress: gamma prefix too long")
		}
		rest, err := r.ReadBits(zeros)
		if err != nil {
			return 0, err
		}
		return 1<<uint(zeros) | rest, nil
	}
}

// ZigZag maps a signed integer to an unsigned one suitable for Elias
// coding: 0→1, -1→2, 1→3, -2→4, ... (shifted by one because Elias codes
// start at 1). The one-slot shift makes math.MinInt64 unrepresentable
// (its image wraps to 0, which gamma cannot code); the sign-sum payloads
// this coder compacts are bounded by the worker count, far inside the
// domain.
func ZigZag(v int64) uint64 {
	u := uint64(v<<1) ^ uint64(v>>63)
	return u + 1
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	u--
	return int64(u>>1) ^ -int64(u&1)
}

// EliasEncodeInts gamma-codes a slice of signed integers (e.g. the
// per-coordinate sign sums of the overflow baseline) and returns the
// packed bytes plus the exact bit length.
func EliasEncodeInts(vals []int64) ([]byte, int) {
	return EliasEncodeIntsBuf(vals, nil)
}

// EliasEncodeIntsBuf is EliasEncodeInts writing into scratch's backing
// array (growing it as needed), so a hot loop can recycle one buffer
// across hops instead of allocating per encode.
//
// This is the wire path's encode kernel. A gamma code is its value u in
// a w = 2·Len64(u)−1 bit big-endian field, so a code of up to 56 bits is
// one shift-or into a 64-bit accumulator, and the accumulator is stored
// as one big-endian word only when the next code would overflow it (the
// whole bytes are kept, the ≤ 7 leftover bits stay pending). The word
// store needs eight bytes of capacity past the write position, so the
// last bytes of an exactly sized buffer — and any code wider than 56
// bits — take the byte-at-a-time drain below instead; a buffer with room
// for the stream is never reallocated. The output stream is bit-identical
// to an EliasGammaEncode loop (the fuzz tests pin this).
func EliasEncodeIntsBuf(vals []int64, scratch []byte) ([]byte, int) {
	buf := scratch[:0]
	var acc uint64 // pending bits in the low nacc positions; higher bits are stale
	nacc := 0
	total := 0
	for _, v := range vals {
		u := ZigZag(v)
		n := bits.Len64(u)
		w := 2*n - 1
		total += w
		if uint(w-1) < 56 && (nacc+w <= 64 || cap(buf)-len(buf) >= 8) {
			if nacc+w > 64 {
				k := len(buf)
				binary.BigEndian.PutUint64(buf[k:k+8], acc<<(uint(64-nacc)&63))
				buf = buf[:k+nacc>>3]
				nacc &= 7
			}
			acc = acc<<(uint(w)&63) | u
			nacc += w
			continue
		}
		for nacc >= 8 {
			nacc -= 8
			buf = append(buf, byte(acc>>uint(nacc)))
		}
		// Prefix: n−1 zeros, pushed ≤ 32 bits at a time so the
		// accumulator (≤ 7 pending bits after draining) never overflows.
		for zeros := n - 1; zeros > 0; {
			take := zeros
			if take > 32 {
				take = 32
			}
			acc <<= uint(take)
			nacc += take
			zeros -= take
			for nacc >= 8 {
				nacc -= 8
				buf = append(buf, byte(acc>>uint(nacc)))
			}
		}
		// Mantissa: u in n ≤ 64 bits, as two ≤ 32-bit pushes.
		if n > 32 {
			hi := n - 32
			acc = acc<<uint(hi) | u>>32
			nacc += hi
			for nacc >= 8 {
				nacc -= 8
				buf = append(buf, byte(acc>>uint(nacc)))
			}
			n = 32
		}
		acc = acc<<uint(n) | u&(1<<uint(n)-1)
		nacc += n
		for nacc >= 8 {
			nacc -= 8
			buf = append(buf, byte(acc>>uint(nacc)))
		}
	}
	for nacc >= 8 {
		nacc -= 8
		buf = append(buf, byte(acc>>uint(nacc)))
	}
	if nacc > 0 {
		buf = append(buf, byte(acc<<uint(8-nacc)))
	}
	return buf, total
}

// EliasIntsBitLen returns the exact bit length EliasEncodeInts would
// produce for vals, without materializing the code — one bits.Len64 per
// value. Callers that must size a message before encoding it (a
// sign-sum hop charges its wire size and sizes its pooled payload from
// it) use this instead of encoding twice.
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

// EliasDecodeIntsInto decodes len(out) signed integers from data into
// out — the allocation-free form used by pooled per-hop scratch.
func EliasDecodeIntsInto(data []byte, out []int64) error {
	return eliasDecodeInts(data, out, 0)
}

// EliasDecodeAddInto decodes len(dst) signed integers from data and adds
// each to its slot, dst[i] += v_i — the sign-sum ring's reduce step
// straight off the payload, with no decoded slice in between. On error
// dst holds the sums of the values decoded before it.
func EliasDecodeAddInto(data []byte, dst []int64) error {
	return eliasDecodeInts(data, dst, -1)
}

// eliasDecodeInts is the wire path's decode kernel, one loop under both
// entry points: out[i] = out[i]&keep + v_i, so keep = 0 overwrites and
// keep = −1 accumulates.
//
// A 64-bit window holds the next bits MSB-aligned, so a whole gamma code
// (prefix, terminator and mantissa) resolves with one LeadingZeros64 and
// one shift when it fits the window — the common case, since sign sums
// are bounded by the worker count. The window is topped up before every
// value by one unconditional big-endian word load: the whole bytes that
// fit are counted in, and the bits of the next byte that ride along are
// genuine stream bits the following load ORs in again. The last eight
// bytes of the stream refill a byte at a time. Codes longer than the
// window, zero runs crossing it and stream exhaustion fall back to the
// scalar reader at the current bit position (the oracle the fuzz tests
// compare against).
func eliasDecodeInts(data []byte, out []int64, keep int64) error {
	var acc uint64 // next bits, MSB-aligned; only the top nacc are counted
	nacc := 0
	byteIdx := 0
	for i := range out {
		if byteIdx+8 <= len(data) {
			acc |= binary.BigEndian.Uint64(data[byteIdx:]) >> (uint(nacc) & 63)
			k := (63 - nacc) >> 3
			byteIdx += k
			nacc += k << 3
		} else {
			for nacc <= 56 && byteIdx < len(data) {
				acc |= uint64(data[byteIdx]) << uint(56-nacc)
				byteIdx++
				nacc += 8
			}
		}
		lz := bits.LeadingZeros64(acc)
		if w := 2*lz + 1; w <= nacc {
			u := acc >> (uint(64-w) & 63)
			acc <<= uint(w) & 63
			nacc -= w
			out[i] = out[i]&keep + UnZigZag(u)
			continue
		}
		// Slow path: long prefix, wide mantissa, or end of stream.
		r := &BitReader{buf: data, pos: byteIdx<<3 - nacc}
		u, err := EliasGammaDecode(r)
		if err != nil {
			return fmt.Errorf("compress: value %d: %w", i, err)
		}
		out[i] = out[i]&keep + UnZigZag(u)
		byteIdx = r.pos >> 3
		acc, nacc = 0, 0
		if rem := r.pos & 7; rem != 0 {
			acc = uint64(data[byteIdx]&(0xff>>uint(rem))) << uint(56+rem)
			nacc = 8 - rem
			byteIdx++
		}
	}
	return nil
}
