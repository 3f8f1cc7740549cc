// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the Marsit reproduction. Every stochastic
// component (data synthesis, stochastic sign compression, Bernoulli
// transient vectors) draws from a named stream derived from a root seed,
// making every experiment bit-reproducible.
//
// The generator is PCG-XSH-RR 64/32 combined into a 64-bit output
// (two 32-bit halves from consecutive states), with SplitMix64 used for
// seeding and stream derivation.
//
// # Concurrency
//
// A *PCG is a self-contained value: it holds no package-level or shared
// state, so distinct streams may be used by distinct goroutines
// concurrently without synchronization. This is the contract the
// concurrent execution engine (internal/runtime) relies on — each worker
// goroutine owns exactly one stream and consumes it in the sequential
// schedule's order, which keeps parallel runs bit-identical to
// single-threaded ones. A single *PCG must never be shared between
// goroutines; give each worker its own via NewStream with distinct
// stream ids (or the Streams convenience).
package rng

import (
	"math"
	"math/bits"
)

// PCG is a permuted congruential generator (PCG-XSH-RR) with a 64-bit
// state and a selectable stream. The zero value is NOT usable; construct
// with New or Split.
type PCG struct {
	state uint64
	inc   uint64 // stream selector; always odd

	// Cached second variate of the polar method used by Norm.
	spare    float64
	hasSpare bool
}

const pcgMult = 6364136223846793005

// splitmix64 advances x and returns a well-mixed 64-bit value. It is the
// standard SplitMix64 finalizer, used for seeding.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed on stream 0.
func New(seed uint64) *PCG {
	return NewStream(seed, 0)
}

// NewStream returns a generator seeded from seed on the given stream.
// Distinct streams with the same seed produce statistically independent
// sequences.
func NewStream(seed, stream uint64) *PCG {
	s := seed
	p := &PCG{}
	p.inc = (splitmix64(&s)+2*stream)<<1 | 1
	p.state = splitmix64(&s)
	p.step()
	p.state += splitmix64(&s)
	p.step()
	return p
}

// Streams returns n generators on streams 0..n-1 of the given seed, one
// per worker. Each may be used from a different goroutine concurrently;
// see the package comment's concurrency contract. Note this is a
// convenience layout for new code and tests — existing components keep
// their own stream-id schedules (core.Marsit derives worker w's
// transient stream as NewStream(seed, w+1)), which this helper must not
// replace without changing every fixed-seed result.
func Streams(seed uint64, n int) []*PCG {
	out := make([]*PCG, n)
	for i := range out {
		out[i] = NewStream(seed, uint64(i))
	}
	return out
}

// Split derives an independent child generator from the parent's current
// state and a label. The parent advances, so successive Split calls with
// the same label still produce distinct children.
func (p *PCG) Split(label uint64) *PCG {
	seed := p.Uint64() ^ (label * 0x9E3779B97F4A7C15)
	return NewStream(seed, label)
}

func (p *PCG) step() uint64 {
	old := p.state
	p.state = old*pcgMult + p.inc
	return old
}

// next32 produces the next 32-bit PCG-XSH-RR output.
func (p *PCG) next32() uint32 {
	return pcgOutput(p.step())
}

// pcgOutput is the XSH-RR output permutation of a pre-advance state:
// the xorshifted high bits rotated right by the top five.
func pcgOutput(old uint64) uint32 {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	return bits.RotateLeft32(xorshifted, -int(old>>59))
}

// Uint64 returns a uniform 64-bit value.
func (p *PCG) Uint64() uint64 {
	hi := uint64(p.next32())
	lo := uint64(p.next32())
	return hi<<32 | lo
}

// Uint32 returns a uniform 32-bit value.
func (p *PCG) Uint32() uint32 { return p.next32() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := p.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability prob. Probabilities outside
// [0, 1] are clamped.
func (p *PCG) Bernoulli(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return p.Float64() < prob
}

// Norm returns a standard normal variate via the polar (Marsaglia) method.
func (p *PCG) Norm() float64 {
	if p.hasSpare {
		p.hasSpare = false
		return p.spare
	}
	for {
		u := 2*p.Float64() - 1
		v := 2*p.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			p.spare = v * f
			p.hasSpare = true
			return u * f
		}
	}
}

// NormVec fills dst with independent N(mean, stddev²) variates and
// returns it. It is bit for bit mean + stddev·Norm() per element, and
// leaves the generator (state, spare, hasSpare) as those calls would: a
// pending spare fills dst[0], then each polar pair fills two elements,
// its second variate kept as the spare on an odd tail.
func (p *PCG) NormVec(dst []float64, mean, stddev float64) []float64 {
	i := 0
	if p.hasSpare && len(dst) > 0 {
		p.hasSpare = false
		dst[0] = mean + stddev*p.spare
		i = 1
	}
	state, inc, spare := p.state, p.inc, p.spare
	for i < len(dst) {
		var x, y uint64
		x, state = uint64At(state, inc)
		y, state = uint64At(state, inc)
		u := 2*(float64(x>>11)/(1<<53)) - 1
		v := 2*(float64(y>>11)/(1<<53)) - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			spare = v * f
			dst[i] = mean + stddev*(u*f)
			if i+1 < len(dst) {
				dst[i+1] = mean + stddev*spare
			} else {
				p.hasSpare = true
			}
			i += 2
		}
	}
	p.state, p.spare = state, spare
	return dst
}

// uint64At returns the Uint64 drawn from state s on stream inc, and the
// state two steps on.
func uint64At(s, inc uint64) (uint64, uint64) {
	s1 := s*pcgMult + inc
	return uint64(pcgOutput(s))<<32 | uint64(pcgOutput(s1)), s1*pcgMult + inc
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Shuffle pseudo-randomly permutes the first n indices using swap.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// BernoulliThreshold returns T = ceil(prob·2⁵³) for prob in (0, 1): the
// integer form of a Float64() < prob decision. Float64 is x/2⁵³ for the
// 53-bit draw x = Uint64()>>11, and both x/2⁵³ and prob·2⁵³ are exact in
// float64, so x/2⁵³ < prob ⟺ x < prob·2⁵³ ⟺ x < T for every x.
func BernoulliThreshold(prob float64) uint64 {
	return uint64(math.Ceil(prob * (1 << 53)))
}

// jumpMul[k] = M^k and jumpAdd[k] = 1 + M + … + M^(k−1) for the LCG
// multiplier M: the state k steps ahead of s on any stream is
// jumpMul[k]·s + jumpAdd[k]·inc (Brown, "Random number generation with
// arbitrary strides", 1994; PCG's advance). A 64-lane word spans 128
// steps, so k ≤ 128 reaches every lane's draw from the word's entry
// state without stepping through the lanes before it.
var jumpMul, jumpAdd [129]uint64

func init() {
	jumpMul[0] = 1
	for k := 1; k < len(jumpMul); k++ {
		jumpMul[k] = jumpMul[k-1] * pcgMult
		jumpAdd[k] = jumpAdd[k-1]*pcgMult + 1
	}
}

// lowBits masks the 21 bits of a 53-bit draw that come from its low
// 32-bit output: x = Uint64()>>11 = hi<<21 | lo>>11.
const lowBits = 1<<21 - 1

// belowByHigh decides x < t for the draw x = hi<<21 | lo>>11 from the
// high output alone. x and t can only compare differently from hi<<21 and
// t's high part when the two are equal — one hi in 2³² — and tie reports
// that case, which belowByLow settles from the low output.
func belowByHigh(hi uint32, t uint64) (below uint64, tie bool) {
	h, th := uint64(hi)<<21, t&^lowBits
	// h, th ≤ 2⁵³, so h−th wraps into the top bit iff h < th.
	return (h - th) >> 63, h == th
}

// belowByLow is the decision on a belowByHigh tie: the high parts are
// equal, so x < t iff the draw's low 21 bits are below t's.
func belowByLow(lo uint32, t uint64) uint64 {
	return (uint64(lo>>11) - t&lowBits) >> 63
}

// BernoulliLanes is n Bernoulli lanes, 0 ≤ n ≤ 64, at consecutive stream
// positions in index order, one Float64-equivalent draw each, returned as
// the low n bits of a word: lane j is 1 when its draw x = Uint64()>>11 is
// below t1 if bit j of sel is set, below t0 otherwise (thresholds from
// BernoulliThreshold). Only the lanes set in need are evaluated — each
// reached by jump-ahead from the word's entry state, so the lanes are
// independent chains — and the rest stay 0; the stream still advances
// exactly as n Float64 calls would, whatever need is. This is the inner
// loop of the ⊙ merge, which reads a lane only where its operands
// disagree; dense callers pass all ones.
func (p *PCG) BernoulliLanes(need, sel, t0, t1 uint64, n int) uint64 {
	state, inc := p.state, p.inc
	dt := t0 ^ t1
	var w uint64
	for m := need & (^uint64(0) >> uint(64-n)); m != 0; m &= m - 1 {
		j := uint(bits.TrailingZeros64(m))
		// Lane j's draw starts 2j steps on: its high output comes from
		// that state, its low output from the one after.
		s := jumpMul[2*j]*state + jumpAdd[2*j]*inc
		t := t0 ^ (dt & -(sel >> j & 1))
		below, tie := belowByHigh(pcgOutput(s), t)
		if tie {
			below = belowByLow(pcgOutput(s*pcgMult+inc), t)
		}
		w |= below << j
	}
	p.state = jumpMul[2*n]*state + jumpAdd[2*n]*inc
	return w
}

// LanesBelow is the dense form of BernoulliLanes with a threshold per
// lane: len(t) ≤ 64 lanes at consecutive stream positions in index
// order, lane j set when its draw x = Uint64()>>11 is below t[j]. Every
// lane is evaluated, so the lanes walk the stream serially, two steps a
// lane (cheaper than a jump per lane when none is skipped), and the
// stream is left exactly as len(t) Float64 calls leave it. t[j] = 0 is a
// lane that is never set but still draws.
func (p *PCG) LanesBelow(t []uint64) uint64 {
	state, inc := p.state, p.inc
	mul2, add2 := jumpMul[2], jumpAdd[2]*inc
	var w uint64
	for j, tj := range t {
		below, tie := belowByHigh(pcgOutput(state), tj)
		if tie {
			below = belowByLow(pcgOutput(state*pcgMult+inc), tj)
		}
		w |= below << uint(j&63)
		state = mul2*state + add2
	}
	p.state = state
	return w
}

// BernoulliWord returns a 64-bit word whose bits are independently 1 with
// probability prob. For prob exactly 1/2 a single Uint64 draw is used;
// otherwise every bit is its own Float64-equivalent draw, in index order
// (the per-element Bernoulli of the paper's transient vector), through
// the same lane routine as the ⊙ merge.
func (p *PCG) BernoulliWord(prob float64, nbits int) uint64 {
	if nbits <= 0 {
		return 0
	}
	if nbits > 64 {
		nbits = 64
	}
	if prob <= 0 {
		return 0
	}
	mask := ^uint64(0)
	if nbits < 64 {
		mask = (1 << uint(nbits)) - 1
	}
	if prob >= 1 {
		return mask
	}
	if prob == 0.5 {
		return p.Uint64() & mask
	}
	t := BernoulliThreshold(prob)
	return p.BernoulliLanes(^uint64(0), 0, t, t, nbits)
}
