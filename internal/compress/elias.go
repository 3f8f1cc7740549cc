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

// BitReader reads an MSB-first bit stream: the decode kernel's fallback
// for codes that do not fit its window, and the tests' reference reader.
type BitReader struct {
	buf []byte
	pos int
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

// EliasDecodeIntsInto decodes len(out) signed integers from data into
// out — the allocation-free form used by pooled per-hop scratch.
func EliasDecodeIntsInto(data []byte, out []int64) error {
	_, err := EliasDecodeIntsLen(data, out)
	return err
}

// EliasDecodeIntsLen is EliasDecodeIntsInto returning the number of bits
// the len(out) codes occupy: the bit count the sender's encoder
// returned, so a receiver can check a frame's length against it and
// charge the frame again without sizing it.
func EliasDecodeIntsLen(data []byte, out []int64) (int, error) {
	return eliasDecodeInts(data, out, false)
}

// EliasDecodeAddInto decodes len(dst) signed integers from data and adds
// each to its slot, dst[i] += v_i — the sign-sum ring's reduce step
// straight off the payload, with no decoded slice in between — and
// returns the bits the codes occupy, as EliasDecodeIntsLen does. On
// error dst holds the sums of the values decoded before it.
func EliasDecodeAddInto(data []byte, dst []int64) (int, error) {
	return eliasDecodeInts(data, dst, true)
}

// The decode table resolves up to eliasGroup whole gamma codes at once
// from the next eliasTableBits bits of the stream. Entry x (those bits,
// MSB first) holds the bits the codes consume in its low four bits,
// their count in the next four and their values as int8s in bytes 1..4
// (0 past the count); a count of 0 means the first code is longer than
// the index. A code within 12 bits is at most 11 bits wide, so its
// value lies in [−31, 31]. 4096 entries of 8 bytes: 32 KB, inside L2
// and, on most cores, L1.
const (
	eliasTableBits = 12
	eliasGroup     = 4
)

var eliasTable = func() (t [1 << eliasTableBits]uint64) {
	for x := range t {
		w := uint64(x) << (64 - eliasTableBits)
		used, n := 0, 0
		for ; n < eliasGroup; n++ {
			code := 2*bits.LeadingZeros64(w) + 1
			if used+code > eliasTableBits {
				break
			}
			v := UnZigZag(w >> (64 - code))
			t[x] |= uint64(uint8(int8(v))) << (8 + 8*n)
			w <<= code
			used += code
		}
		t[x] |= uint64(used) | uint64(n)<<4
	}
	return t
}()

// eliasWindow is the decode kernel's read position: the next bits of
// the stream, MSB-aligned in acc, of which the top nacc are counted, and
// the next byte to load.
type eliasWindow struct {
	acc     uint64
	nacc    int
	byteIdx int
}

// refill tops a window up from the eight bytes of data at byteIdx with
// one unconditional big-endian word load, to at least 56 counted bits:
// the whole bytes that fit are counted in, and the bits of the next byte
// that ride along are genuine stream bits the following load ORs in
// again.
func refill(data []byte, acc uint64, nacc, byteIdx int) (uint64, int, int) {
	acc |= binary.BigEndian.Uint64(data[byteIdx:]) >> (uint(nacc) & 63)
	k := (63 - nacc) >> 3
	return acc, nacc + k<<3, byteIdx + k
}

// table is the decode kernel's fast path. While eight bytes of stream
// remain, it refills the window once per four table lookups of at most
// 12 bits each, so the load sits once per four lookups on the
// dependency chain instead of once per value. Each lookup writes a
// whole group of eliasGroup slots branch-free, and the slots past its
// count get 0 (or, adding, +0), which the next lookup overwrites. It
// returns the index of the next value once fewer than 4·eliasGroup
// values or eight bytes are left, or when a round of lookups makes no
// progress (a code wider than the index). It has no calls, so its
// window stays in registers.
func (r *eliasWindow) table(data []byte, out []int64, i int, add bool) int {
	acc, nacc, byteIdx := r.acc, r.nacc, r.byteIdx
	for byteIdx+8 <= len(data) && i+4*eliasGroup <= len(out) {
		acc, nacc, byteIdx = refill(data, acc, nacc, byteIdx)
		i0 := i
		for range 4 {
			e := eliasTable[acc>>(64-eliasTableBits)]
			g := out[i : i+eliasGroup : i+eliasGroup]
			if add {
				g[0] += int64(int8(e >> 8))
				g[1] += int64(int8(e >> 16))
				g[2] += int64(int8(e >> 24))
				g[3] += int64(int8(e >> 32))
			} else {
				g[0] = int64(int8(e >> 8))
				g[1] = int64(int8(e >> 16))
				g[2] = int64(int8(e >> 24))
				g[3] = int64(int8(e >> 32))
			}
			used := uint(e) & 15
			acc <<= used
			nacc -= int(used)
			i += int(e>>4) & 15
		}
		if i == i0 {
			break
		}
	}
	r.acc, r.nacc, r.byteIdx = acc, nacc, byteIdx
	return i
}

// eliasDecodeInts is the wire path's decode kernel, one loop under both
// entry points: it overwrites out with the len(out) values coded in data,
// or adds them to it, and returns the bits the codes occupy.
//
// Runs of values go through the table (eliasWindow.table). The rest —
// the last values of out, the last eight bytes of the stream, whose
// window is refilled a byte at a time, and codes wider than the index —
// resolve one at a time: a whole code that fits the window takes one
// LeadingZeros64 and one shift, and anything else (a code longer than
// the window, a zero run crossing it, stream exhaustion) falls back to
// the scalar reader at the current bit position, the oracle the fuzz
// tests compare against.
func eliasDecodeInts(data []byte, out []int64, add bool) (int, error) {
	keep := int64(0) // out[i] = out[i]&keep + v: keep = −1 adds
	if add {
		keep = -1
	}
	var r eliasWindow
	for i := 0; i < len(out); i++ {
		if i = r.table(data, out, i, add); i == len(out) {
			break
		}
		if r.byteIdx+8 <= len(data) {
			r.acc, r.nacc, r.byteIdx = refill(data, r.acc, r.nacc, r.byteIdx)
		} else {
			for r.nacc <= 56 && r.byteIdx < len(data) {
				r.acc |= uint64(data[r.byteIdx]) << uint(56-r.nacc)
				r.byteIdx++
				r.nacc += 8
			}
		}
		lz := bits.LeadingZeros64(r.acc)
		if w := 2*lz + 1; w <= r.nacc {
			u := r.acc >> (uint(64-w) & 63)
			r.acc <<= uint(w) & 63
			r.nacc -= w
			out[i] = out[i]&keep + UnZigZag(u)
			continue
		}
		// Slow path: long prefix, wide mantissa, or end of stream.
		br := &BitReader{buf: data, pos: r.byteIdx<<3 - r.nacc}
		u, err := EliasGammaDecode(br)
		if err != nil {
			return 0, fmt.Errorf("compress: value %d: %w", i, err)
		}
		out[i] = out[i]&keep + UnZigZag(u)
		r = eliasWindow{byteIdx: br.pos >> 3}
		if rem := br.pos & 7; rem != 0 {
			r.acc = uint64(data[r.byteIdx]&(0xff>>uint(rem))) << uint(56+rem)
			r.nacc = 8 - rem
			r.byteIdx++
		}
	}
	return r.byteIdx<<3 - r.nacc, nil
}
