// Package bitvec implements densely packed bit vectors used to carry
// sign information on the simulated wire. One bit per gradient element is
// the "ultimate compression" of the paper: bit 1 encodes a non-negative
// (+1) element, bit 0 a negative (−1) element.
//
// The type supports the word-level boolean algebra required by Marsit's
// ⊙ operator — (v_i AND v*_i) OR ((v_i XOR v*_i) AND v) — plus Bernoulli
// mask generation for the transient vector v, population counts, and a
// compact serialization used by the network simulator to account bytes.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"marsit/internal/rng"
)

// Vec is a packed bit vector of fixed length.
type Vec struct {
	n     int
	words []uint64
}

// New returns an all-zero bit vector of length n.
func New(n int) *Vec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vec{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (v *Vec) Len() int { return v.n }

// Resize makes v an all-zero vector of length n, reusing its words when
// they have room, so a schedule that moves segments of slightly
// different lengths every hop keeps one vector. v must own its words (a
// Slice does not).
func (v *Vec) Resize(n int) {
	if n < 0 {
		panic("bitvec: negative length")
	}
	nw := (n + 63) / 64
	if nw > cap(v.words) {
		v.words = make([]uint64, nw)
	} else {
		v.words = v.words[:nw]
		clear(v.words)
	}
	v.n = n
}

// Get reports whether bit i is set.
func (v *Vec) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i to b.
func (v *Vec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i>>6] |= 1 << uint(i&63)
	} else {
		v.words[i>>6] &^= 1 << uint(i&63)
	}
}

func (v *Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns a deep copy.
func (v *Vec) Clone() *Vec {
	out := New(v.n)
	copy(out.words, v.words)
	return out
}

// Copy copies src into v. Lengths must match.
func (v *Vec) Copy(src *Vec) {
	v.checkSame(src)
	copy(v.words, src.words)
}

func (v *Vec) checkSame(o *Vec) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
}

// And computes v &= o in place.
func (v *Vec) And(o *Vec) {
	v.checkSame(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// Or computes v |= o in place.
func (v *Vec) Or(o *Vec) {
	v.checkSame(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// Xor computes v ^= o in place.
func (v *Vec) Xor(o *Vec) {
	v.checkSame(o)
	for i := range v.words {
		v.words[i] ^= o.words[i]
	}
}

// Not flips every bit in place (tail bits beyond Len stay clear).
func (v *Vec) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.clearTail()
}

// clearTail zeroes the unused high bits of the last word so that
// OnesCount and Equal remain exact.
func (v *Vec) clearTail() {
	if rem := uint(v.n & 63); rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << rem) - 1
	}
}

// OnesCount returns the number of set bits.
func (v *Vec) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether v and o hold identical bits.
func (v *Vec) Equal(o *Vec) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// FillBernoulli sets every bit independently to 1 with probability p,
// drawing from r. This realizes the transient vector of Eq. (2).
func (v *Vec) FillBernoulli(r *rng.PCG, p float64) {
	for i := range v.words {
		v.words[i] = r.BernoulliWord(p, v.wordBits(i))
	}
}

// wordBits returns how many bits of word i are in use: 64, except for a
// partial last word.
func (v *Vec) wordBits(i int) int {
	if i == len(v.words)-1 {
		if rem := v.n & 63; rem != 0 {
			return rem
		}
	}
	return 64
}

// FromSigns packs the signs of src (non-negative → 1) into a new Vec.
func FromSigns(src []float64) *Vec {
	v := New(len(src))
	packSignWords(v.words, src)
	return v
}

// PackSigns is FromSigns into an existing vector (length must equal
// len(src)); it avoids allocation on hot paths. The loop is word-
// parallel: each 64-bit output word is assembled in a register and
// stored once. The sign test stays the `x >= 0` comparison (not the
// IEEE sign bit), preserving the repository-wide convention that −0.0
// packs as +1 and a NaN as −1.
func (v *Vec) PackSigns(src []float64) {
	if len(src) != v.n {
		panic(fmt.Sprintf("bitvec: PackSigns length mismatch %d != %d", len(src), v.n))
	}
	packSignWords(v.words, src)
}

// PackVotes is PackSigns for integer votes (or sums of them): bit i is 1
// where src[i] >= 0, so a tied sum packs as +1.
func (v *Vec) PackVotes(src []int64) {
	if len(src) != v.n {
		panic(fmt.Sprintf("bitvec: PackVotes length mismatch %d != %d", len(src), v.n))
	}
	packSignWords(v.words, src)
}

// SetWord overwrites bits [64i, 64i+64) of v with w, dropping the bits
// of w past Len: the store of a kernel that produces its bits a word at
// a time.
func (v *Vec) SetWord(i int, w uint64) {
	if i == len(v.words)-1 {
		if rem := uint(v.n & 63); rem != 0 {
			w &= 1<<rem - 1
		}
	}
	v.words[i] = w
}

// packSignWords packs up to 64 elements of src per output word.
func packSignWords[T float64 | int64](words []uint64, src []T) {
	for wi := range words {
		lo := wi << 6
		words[wi] = packSignWord(src[lo:min(lo+64, len(src))])
	}
}

// packSignWord packs the signs of up to 64 elements, x >= 0 → 1, into
// the low len(src) bits of a word in index order. Each sign enters at the
// top and shifts down, as in PackSignsOfSum: no variable shift and no
// branch in the loop.
func packSignWord[T float64 | int64](src []T) uint64 {
	var w uint64
	for _, x := range src {
		var top uint64
		if x >= 0 {
			top = 1 << 63
		}
		w = w>>1 | top
	}
	return w >> uint(64-len(src))
}

// PackSignsOfSum adds x into acc (acc[i] += x[i]) and packs the signs of
// the sums into v in the same pass, under PackSigns' sign convention. It
// is line 1 of Algorithm 1 fused with the sign packing: acc is the
// compensation vector, x the scaled gradient, and the sum u stays in acc.
func (v *Vec) PackSignsOfSum(acc, x []float64) {
	if len(acc) != v.n || len(x) != v.n {
		panic(fmt.Sprintf("bitvec: PackSignsOfSum lengths %d, %d != %d", len(acc), len(x), v.n))
	}
	for wi := range v.words {
		lo := wi << 6
		hi := min(lo+64, v.n)
		a, b := acc[lo:hi], x[lo:hi]
		var w uint64
		for j := range a {
			s := a[j] + b[j]
			a[j] = s
			// Signs enter at the top and shift down into index order: no
			// variable shift in the loop.
			var top uint64
			if s >= 0 {
				top = 1 << 63
			}
			w = w>>1 | top
		}
		v.words[wi] = w >> uint(64-len(a))
	}
}

// PackSignsOfSubSum is SubScaled followed by PackSignsOfSum in one pass:
// acc[i] = (acc[i] − (±scale)) + x[i], ±scale read from bit i of v as
// SubScaled reads it, and the sign of the result packed into the same
// bit. It is line 10 of Algorithm 1's last round fused with line 1 of the
// next: acc holds u and v the consensus on entry, and on return acc
// holds the next u and v its signs. The operand order is the two passes'
// own, so every value is bit for bit theirs. scale must not be negative.
func (v *Vec) PackSignsOfSubSum(acc []float64, scale float64, x []float64) {
	if len(acc) != v.n || len(x) != v.n {
		panic(fmt.Sprintf("bitvec: PackSignsOfSubSum lengths %d, %d != %d", len(acc), len(x), v.n))
	}
	pm := [2]float64{math.Float64frombits(math.Float64bits(scale) | 1<<63), scale}
	for wi, old := range v.words {
		lo := wi << 6
		hi := min(lo+64, v.n)
		a, b := acc[lo:hi], x[lo:hi]
		var w uint64
		for j := range a {
			s := (a[j] - pm[old&1]) + b[j]
			old >>= 1
			a[j] = s
			var top uint64
			if s >= 0 {
				top = 1 << 63
			}
			w = w>>1 | top
		}
		v.words[wi] = w >> uint(64-len(a))
	}
}

// SubScaled subtracts ±scale from acc (acc[i] −= scale where bit i is 1,
// −scale where it is 0) without writing the ±scale vector anywhere: line
// 10 of Algorithm 1 read straight from the consensus bits, with acc
// holding u on entry and the next compensation on return. scale must not
// be negative; a clear bit's −scale is scale with the IEEE sign bit set,
// and for scale > 0 each subtrahend is bit for bit the value UnpackScaled
// writes.
func (v *Vec) SubScaled(acc []float64, scale float64) {
	if len(acc) != v.n {
		panic(fmt.Sprintf("bitvec: SubScaled length mismatch %d != %d", len(acc), v.n))
	}
	pos := math.Float64bits(scale)
	nib := scaledNibbles(math.Float64frombits(pos|1<<63), scale)
	for wi, w := range v.words {
		lo := wi << 6
		a := acc[lo:min(lo+64, v.n)]
		j := 0
		for ; j+4 <= len(a); j += 4 {
			t, a4 := &nib[w&15], (*[4]float64)(a[j:j+4])
			a4[0] -= t[0]
			a4[1] -= t[1]
			a4[2] -= t[2]
			a4[3] -= t[3]
			w >>= 4
		}
		for ; j < len(a); j++ {
			a[j] -= nib[w&1][0]
			w >>= 1
		}
	}
}

// scaledNibbles returns, for every 4-bit pattern n, the four values its
// bits select in index order: one for a set bit, zero for a clear one.
// The ±scale kernels read four elements at a time from it instead of
// forming each from its bit, about 40 % faster at one bit per element.
func scaledNibbles(zero, one float64) (t [16][4]float64) {
	v := [2]float64{zero, one}
	for n := range t {
		t[n] = [4]float64{v[n&1], v[n>>1&1], v[n>>2&1], v[n>>3]}
	}
	return t
}

// UnpackScaled writes dst[i] = scale where bit i is 1, −scale where it is
// 0. A clear bit flips the IEEE sign, so −scale is the exact negation
// whatever scale's own sign is.
func (v *Vec) UnpackScaled(dst []float64, scale float64) {
	v.UnpackPair(dst, math.Float64frombits(math.Float64bits(scale)^1<<63), scale)
}

// UnpackPair writes dst[i] = one where bit i is 1, zero where it is 0:
// the decode of a one-bit payload whose two values the caller forms.
func (v *Vec) UnpackPair(dst []float64, zero, one float64) {
	if len(dst) != v.n {
		panic(fmt.Sprintf("bitvec: UnpackPair length mismatch %d != %d", len(dst), v.n))
	}
	nib := scaledNibbles(zero, one)
	for wi, w := range v.words {
		lo := wi << 6
		out := dst[lo:min(lo+64, v.n)]
		j := 0
		for ; j+4 <= len(out); j += 4 {
			*(*[4]float64)(out[j : j+4]) = nib[w&15]
			w >>= 4
		}
		for ; j < len(out); j++ {
			out[j] = nib[w&1][0]
			w >>= 1
		}
	}
}

// UnpackPairAdd is UnpackPair with x added: dst[i] = p_i + x[i], p_i
// being one where bit i is 1 and zero where it is 0. dst may be x.
func (v *Vec) UnpackPairAdd(dst, x []float64, zero, one float64) {
	if len(dst) != v.n || len(x) != v.n {
		panic(fmt.Sprintf("bitvec: UnpackPairAdd lengths %d, %d != %d", len(dst), len(x), v.n))
	}
	nib := scaledNibbles(zero, one)
	for wi, w := range v.words {
		lo := wi << 6
		hi := min(lo+64, v.n)
		out, in := dst[lo:hi], x[lo:hi]
		j := 0
		for ; j+4 <= len(out); j += 4 {
			t, x4 := &nib[w&15], (*[4]float64)(in[j:j+4])
			o4 := (*[4]float64)(out[j : j+4])
			o4[0], o4[1], o4[2], o4[3] = t[0]+x4[0], t[1]+x4[1], t[2]+x4[2], t[3]+x4[3]
			w >>= 4
		}
		for ; j < len(out); j++ {
			out[j] = nib[w&1][0] + in[j]
			w >>= 1
		}
	}
}

// MatchCount returns tensor.MatchCount(u, ref) for the u that
// UnpackScaled(u, scale) writes with any scale > 0: the number of indices
// at which ±scale and ref[i] have the same sign. ±scale is negative
// exactly where bit i is clear, so the two agree where bit i differs from
// ref[i] < 0 — tensor.MatchRate's own predicate, not PackSigns' x >= 0,
// which parts ways with it on −0 and NaN. ref[i] < 0 is packed a word at
// a time and the agreements counted by popcount.
func (v *Vec) MatchCount(ref []float64) int {
	if len(ref) != v.n {
		panic(fmt.Sprintf("bitvec: MatchCount length mismatch %d != %d", len(ref), v.n))
	}
	agree := 0
	for wi, w := range v.words {
		lo := wi << 6
		r := ref[lo:min(lo+64, v.n)]
		var neg uint64
		for _, x := range r {
			// As in PackSignsOfSum: the flag enters at the top and shifts
			// down into index order.
			var top uint64
			if x < 0 {
				top = 1 << 63
			}
			neg = neg>>1 | top
		}
		// Both words keep their bits past len(r) clear.
		agree += bits.OnesCount64(w ^ (neg >> uint(64-len(r))))
	}
	return agree
}

// UnpackSigns writes ±1 into dst (bit 1 → +1, bit 0 → −1).
// dst must have length Len. Word-parallel and branch-free: each word is
// loaded once and its bits mapped to ±1 via 2·bit − 1.
func (v *Vec) UnpackSigns(dst []float64) {
	if len(dst) != v.n {
		panic(fmt.Sprintf("bitvec: UnpackSigns length mismatch %d != %d", len(dst), v.n))
	}
	for wi, w := range v.words {
		lo := wi << 6
		hi := lo + 64
		if hi > len(dst) {
			hi = len(dst)
		}
		out := dst[lo:hi]
		for j := range out {
			out[j] = float64(int64(w&1)<<1 - 1)
			w >>= 1
		}
	}
}

// AddSignsInto accumulates ±1 per bit into dst (dst[i] += ±1), with the
// same word-at-a-time, branch-free mapping as UnpackSigns.
func (v *Vec) AddSignsInto(dst []float64) {
	if len(dst) != v.n {
		panic("bitvec: AddSignsInto length mismatch")
	}
	for wi, w := range v.words {
		lo := wi << 6
		hi := lo + 64
		if hi > len(dst) {
			hi = len(dst)
		}
		out := dst[lo:hi]
		for j := range out {
			out[j] += float64(int64(w&1)<<1 - 1)
			w >>= 1
		}
	}
}

// WireBytes returns the number of bytes this vector occupies on the
// simulated wire: one bit per element, rounded up to whole bytes.
func (v *Vec) WireBytes() int { return (v.n + 7) / 8 }

// MarshalBytes returns the serialized size: the 4-byte header plus the
// packed payload.
func (v *Vec) MarshalBytes() int { return 4 + v.WireBytes() }

// Marshal serializes the vector: 4-byte little-endian bit length followed
// by ceil(n/8) payload bytes.
func (v *Vec) Marshal() []byte {
	out := make([]byte, v.MarshalBytes())
	v.MarshalInto(out)
	return out
}

// MarshalInto is Marshal into a caller-provided buffer of exactly
// MarshalBytes() length (e.g. one drawn from a payload pool). Whole
// words are stored with one 8-byte write each; only the tail of the
// last word goes byte by byte.
func (v *Vec) MarshalInto(out []byte) {
	if len(out) != v.MarshalBytes() {
		panic(fmt.Sprintf("bitvec: MarshalInto buffer of %d bytes, want %d", len(out), v.MarshalBytes()))
	}
	binary.LittleEndian.PutUint32(out, uint32(v.n))
	payload := out[4:]
	nb := v.WireBytes()
	full := nb >> 3
	for i := 0; i < full; i++ {
		binary.LittleEndian.PutUint64(payload[8*i:], v.words[i])
	}
	for i := full << 3; i < nb; i++ {
		payload[i] = byte(v.words[i>>3] >> uint((i&7)*8))
	}
}

// UnmarshalInto parses data produced by Marshal into dst, loading whole
// words with one 8-byte read each. dst takes the frame's length (Resize)
// and keeps its words when they have room: a ring hop that receives a
// segment every step decodes into one vector. On an error dst
// is left as it was.
func UnmarshalInto(dst *Vec, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("bitvec: short header (%d bytes)", len(data))
	}
	// Checked in uint64: on a 32-bit int a header of 2³¹ bits or more
	// would turn negative and reach Resize instead of an error.
	n := uint64(binary.LittleEndian.Uint32(data))
	payload := data[4:]
	if need := (n + 7) / 8; uint64(len(payload)) < need || n > math.MaxInt {
		return fmt.Errorf("bitvec: want %d payload bytes, have %d", need, len(payload))
	}
	want := int((n + 7) / 8)
	dst.Resize(int(n))
	full := want >> 3
	for i := 0; i < full; i++ {
		dst.words[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	for i := full << 3; i < want; i++ {
		dst.words[i>>3] |= uint64(payload[i]) << uint((i&7)*8)
	}
	dst.clearTail()
	return nil
}

// MarshalSigns writes FromSigns(src).Marshal() into out (exactly
// 4 + ⌈len(src)/8⌉ bytes) without building the vector: the hops that
// ship ±1 signs pack them straight into a pooled payload. Integer votes
// pack under the same convention, non-negative → 1.
func MarshalSigns[T float64 | int64](out []byte, src []T) {
	n := len(src)
	if len(out) != 4+(n+7)/8 {
		panic(fmt.Sprintf("bitvec: MarshalSigns buffer of %d bytes, want %d", len(out), 4+(n+7)/8))
	}
	binary.LittleEndian.PutUint32(out, uint32(n))
	payload := out[4:]
	for lo := 0; lo < n; lo += 64 {
		w := packSignWord(src[lo:min(lo+64, n)])
		if lo+64 <= n {
			binary.LittleEndian.PutUint64(payload[lo>>3:], w)
			continue
		}
		for i := lo >> 3; i < len(payload); i++ {
			payload[i] = byte(w)
			w >>= 8
		}
	}
}

// UnmarshalSigns is UnmarshalInto followed by UnpackSigns into dst, without
// the vector in between: data must be the Marshal form of exactly
// len(dst) bits, and dst receives +1 for a set bit, −1 for a clear one.
func UnmarshalSigns(data []byte, dst []float64) error {
	if len(data) < 4 {
		return fmt.Errorf("bitvec: short header (%d bytes)", len(data))
	}
	n := len(dst)
	if got := int(binary.LittleEndian.Uint32(data)); got != n {
		return fmt.Errorf("bitvec: %d sign bits, want %d", got, n)
	}
	payload := data[4:]
	if want := (n + 7) / 8; len(payload) < want {
		return fmt.Errorf("bitvec: want %d payload bytes, have %d", want, len(payload))
	}
	for lo := 0; lo < n; lo += 64 {
		var w uint64
		if lo+64 <= n {
			w = binary.LittleEndian.Uint64(payload[lo>>3:])
		} else {
			for i := (n+7)/8 - 1; i >= lo>>3; i-- {
				w = w<<8 | uint64(payload[i])
			}
		}
		out := dst[lo:min(lo+64, n)]
		for j := range out {
			out[j] = float64(int64(w&1)<<1 - 1)
			w >>= 1
		}
	}
	return nil
}

// Merge3 computes the Marsit ⊙ combination into v:
//
//	v = (v AND local) OR ((v XOR local) AND transient)
//
// where v is the received aggregate, local the worker's own sign vector,
// and transient the pre-drawn Bernoulli tie-breaker. All three must have
// equal length. transient is read-only; v is overwritten.
func (v *Vec) Merge3(local, transient *Vec) {
	v.checkSame(local)
	v.checkSame(transient)
	for i := range v.words {
		a := v.words[i]
		b := local.words[i]
		v.words[i] = (a & b) | ((a ^ b) & transient.words[i])
	}
}

// MergeBernoulli is Merge3 with the transient vector of Eq. (2) drawn
// inside the loop and never stored: word by word, lane j of the transient
// is one Float64-equivalent draw from r, in index order, set with the
// threshold t1 where local's bit j is 1 and t0 where it is 0 (see
// rng.BernoulliLanes; the last word spans only Len mod 64 lanes). The
// stream advances by exactly Len positions, evaluating only the
// disagreeing lanes: the merge reads the transient nowhere else.
func (v *Vec) MergeBernoulli(local *Vec, r *rng.PCG, t0, t1 uint64) {
	v.checkSame(local)
	for i, b := range local.words {
		a := v.words[i]
		t := r.BernoulliLanes(a^b, b, t0, t1, v.wordBits(i))
		v.words[i] = (a & b) | ((a ^ b) & t)
	}
}

// Majority sets v to the coordinate-wise majority of votes, ties to 1:
// bit i is 1 iff at least half of the votes have it set (the sign of
// Σ ±1 under the x >= 0 convention). Per word, a carry-save counter adds
// the votes into ⌈log₂(M+1)⌉ bit planes — plane p holds bit p of all 64
// lane counts — and a bit-sliced compare against ⌈M/2⌉ reads the result.
func (v *Vec) Majority(votes []*Vec) {
	for _, o := range votes {
		v.checkSame(o)
	}
	half := uint64(len(votes)+1) / 2
	planes := make([]uint64, bits.Len(uint(len(votes))))
	for i := range v.words {
		clear(planes)
		for _, o := range votes {
			carry := o.words[i]
			for p := 0; carry != 0; p++ {
				planes[p], carry = planes[p]^carry, planes[p]&carry
			}
		}
		// count >= half, from the top plane down: gt holds the lanes
		// already above, eq those still equal on every plane so far.
		gt, eq := uint64(0), ^uint64(0)
		for p := len(planes) - 1; p >= 0; p-- {
			h := -(half >> uint(p) & 1)
			gt |= eq & planes[p] &^ h
			eq &^= planes[p] ^ h
		}
		v.words[i] = gt | eq
	}
	v.clearTail()
}

// ExtractInto copies bits [lo, lo+dst.Len()) of v into dst, a word at a
// time: each output word is assembled from at most two source words with
// a funnel shift (a per-hop operation of the one-bit ring schedule, where
// the per-bit version dominated profiles). The schedule keeps dst across
// hops (Resize).
func (v *Vec) ExtractInto(dst *Vec, lo int) {
	if lo < 0 || lo+dst.n > v.n {
		panic(fmt.Sprintf("bitvec: ExtractInto[%d,%d) of length %d", lo, lo+dst.n, v.n))
	}
	if dst.n == 0 {
		return
	}
	wi, off := lo>>6, uint(lo&63)
	if off == 0 {
		copy(dst.words, v.words[wi:wi+len(dst.words)])
	} else {
		for k := range dst.words {
			w := v.words[wi+k] >> off
			if wi+k+1 < len(v.words) {
				w |= v.words[wi+k+1] << (64 - off)
			}
			dst.words[k] = w
		}
	}
	dst.clearTail()
}

// Slice returns bits [lo, hi) of v as a vector that shares v's words, so
// a pass over v can be split into ranges that each run a Vec method on
// their own bits. A non-empty range must start a word and end one or at
// Len: then the slice keeps the clear tail every method relies on, and
// two slices of disjoint ranges share no word.
func (v *Vec) Slice(lo, hi int) Vec {
	if lo < 0 || hi < lo || hi > v.n || lo < hi && (lo&63 != 0 || hi&63 != 0 && hi != v.n) {
		panic(fmt.Sprintf("bitvec: Slice[%d,%d) of length %d is not word-aligned", lo, hi, v.n))
	}
	if lo == hi {
		return Vec{}
	}
	return Vec{n: hi - lo, words: v.words[lo>>6 : (hi+63)>>6]}
}

// Insert writes src into v starting at bit lo, a word at a time: each
// source word lands in at most two destination words through a masked
// read-modify-write.
func (v *Vec) Insert(lo int, src *Vec) {
	if lo < 0 || lo+src.n > v.n {
		panic(fmt.Sprintf("bitvec: Insert of %d bits at %d into length %d", src.n, lo, v.n))
	}
	for k := range src.words {
		m := 64
		if k == len(src.words)-1 {
			if r := src.n & 63; r != 0 {
				m = r
			}
		}
		setBitRange(v.words, lo+(k<<6), src.words[k], m)
	}
}

// setBitRange overwrites the m ≤ 64 bits at bit position pos with the
// low m bits of w (src words keep their tail clear, but w is masked
// anyway so a stray high bit cannot leak).
func setBitRange(words []uint64, pos int, w uint64, m int) {
	if m <= 0 {
		return
	}
	wi, off := pos>>6, uint(pos&63)
	mask := ^uint64(0) >> (64 - uint(m))
	w &= mask
	words[wi] = words[wi]&^(mask<<off) | w<<off
	if int(off)+m > 64 {
		words[wi+1] = words[wi+1]&^(mask>>(64-off)) | w>>(64-off)
	}
}

// String renders the bits most-significant-last ("1011…"), mainly for
// debugging and test failure messages.
func (v *Vec) String() string {
	buf := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
