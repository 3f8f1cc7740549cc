// Package tensor provides flat float64 vector primitives shared by the
// compression, collective, and neural-network layers of the Marsit
// reproduction. Gradients, model parameters, and compensation vectors are
// all represented as []float64; this package centralizes the arithmetic
// so numerical conventions (sign of zero, norm definitions) live in one
// place. It also holds the one way a pass over such vectors is split
// across cores: Partition's element ranges and ForLanes' fork-join.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Vec is a dense 1-D float64 vector.
type Vec = []float64

// New returns a zeroed vector of length n.
func New(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0 and returns v.
func Zero(v Vec) Vec {
	for i := range v {
		v[i] = 0
	}
	return v
}

// Fill sets every element of v to c and returns v.
func Fill(v Vec, c float64) Vec {
	for i := range v {
		v[i] = c
	}
	return v
}

// Add computes dst += src element-wise. Lengths must match.
func Add(dst, src Vec) {
	checkLen(len(dst), len(src))
	for i := range dst {
		dst[i] += src[i]
	}
}

// Sub computes dst -= src element-wise. Lengths must match.
func Sub(dst, src Vec) {
	checkLen(len(dst), len(src))
	for i := range dst {
		dst[i] -= src[i]
	}
}

// Axpy computes dst += alpha*src element-wise. Lengths must match.
func Axpy(dst Vec, alpha float64, src Vec) {
	checkLen(len(dst), len(src))
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}

// Scale multiplies every element of v by alpha.
func Scale(v Vec, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product of a and b. Lengths must match.
func Dot(a, b Vec) float64 {
	checkLen(len(a), len(b))
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean (ℓ2) norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Norm1 returns the ℓ1 norm of v.
func Norm1(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the maximum absolute element of v (0 for empty v).
func NormInf(v Vec) float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b Vec) float64 {
	checkLen(len(a), len(b))
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sign returns the sign of x as ±1. Zero maps to +1, matching the
// repository-wide convention that bit 1 encodes a non-negative element.
func Sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// SignVec writes the element-wise sign of src into dst and returns dst.
// dst may alias src.
func SignVec(dst, src Vec) Vec {
	checkLen(len(dst), len(src))
	for i, x := range src {
		dst[i] = Sign(x)
	}
	return dst
}

// Mean returns the arithmetic mean of v (0 for empty v).
func Mean(v Vec) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Sum returns the sum of all elements of v.
func Sum(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Argmax returns the index of the largest element (first on ties).
// It panics on an empty vector.
func Argmax(v Vec) int {
	if len(v) == 0 {
		panic("tensor: Argmax of empty vector")
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// MatchRate returns the fraction of indices where a and b have the same
// sign (under the zero-is-positive convention). It is the "matching rate"
// metric of Figure 1b. An empty pair matches perfectly.
func MatchRate(a, b Vec) float64 {
	agree := MatchCount(a, b)
	if len(a) == 0 {
		return 1
	}
	return float64(agree) / float64(len(a))
}

// MatchCount returns the number of indices where a and b have the same
// sign, MatchRate's numerator. It is an integer so that the counts of
// disjoint ranges add up to the whole vector's exactly.
func MatchCount(a, b Vec) int {
	checkLen(len(a), len(b))
	b = b[:len(a)]
	// Two signs differ exactly when one of a[i] < 0, b[i] < 0 holds; each
	// test becomes a 0/1 integer (SETcc), so random signs cost no
	// mispredicted branches.
	differ := 0
	for i, x := range a {
		var na, nb int
		if x < 0 {
			na = 1
		}
		if b[i] < 0 {
			nb = 1
		}
		differ += na ^ nb
	}
	return len(a) - differ
}

// Segment describes a half-open index range [Lo, Hi) of a vector.
type Segment struct {
	Lo, Hi int
}

// Len returns the number of elements in the segment.
func (s Segment) Len() int { return s.Hi - s.Lo }

// Of returns the sub-slice of v covered by the segment.
func (s Segment) Of(v Vec) Vec { return v[s.Lo:s.Hi] }

// Partition splits [0, n) into parts contiguous segments whose lengths
// differ by at most one (the first n%parts segments get the extra
// element). This is exactly the segment layout ring all-reduce uses.
func Partition(n, parts int) []Segment {
	if parts <= 0 {
		panic("tensor: Partition with non-positive parts")
	}
	segs := make([]Segment, parts)
	base := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		segs[i] = Segment{Lo: lo, Hi: lo + size}
		lo += size
	}
	return segs
}

// PartitionAligned is Partition over blocks of align elements: it splits
// [0, n) into parts contiguous segments that start at multiples of align
// (the last one ends at n) and whose counts of blocks differ by at most
// one, the last block being partial when align does not divide n. With
// align 64 every segment starts at a word of a bit vector. Segments past
// the last element are empty.
func PartitionAligned(n, parts, align int) []Segment {
	if align <= 0 {
		panic("tensor: PartitionAligned with non-positive align")
	}
	segs := Partition((n+align-1)/align, parts)
	for i, s := range segs {
		segs[i] = Segment{Lo: min(s.Lo*align, n), Hi: min(s.Hi*align, n)}
	}
	return segs
}

// Lanes returns the lane count for work of items ≥ 1 independent
// pieces: min(items, GOMAXPROCS).
func Lanes(items int) int {
	return min(items, runtime.GOMAXPROCS(0))
}

// ForLanes runs f(p, b) for every lane p in [0, lanes) and returns once
// all have: lane 0 on the caller, each other lane on a goroutine of its
// own. With one lane it is a plain call, and b is nil. b lets work that
// comes in dependent steps stay in one call: the lanes meet at b.Wait
// between the steps, where a fork-join per step would start a goroutine
// per lane per step. When there are at least as many CPUs as lanes, a
// lane that arrives early spins briefly before it parks, so that a short
// wait costs no thread wake-up. A panic on any lane breaks the
// barrier, so no lane waits for it forever, and reaches the caller after
// the join. It is the repository's one fork-join: lanes must touch
// disjoint state — a worker's own vectors, a segment, an element range —
// between barriers, and anything that reduces across them stays on the
// caller after the join.
func ForLanes(lanes int, f func(p int, b *Barrier)) {
	if lanes == 1 {
		f(0, nil)
		return
	}
	b := &Barrier{lanes: lanes, spin: lanes <= runtime.NumCPU()}
	b.cond.L = &b.mu
	b.opened.Store(monotonic())
	panics := make([]any, lanes)
	lane := func(p int) {
		defer func() {
			if v := recover(); v != nil {
				panics[p] = v
				b.abort()
			}
		}()
		f(p, b)
	}
	var wg sync.WaitGroup
	for p := 1; p < lanes; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane(p)
		}()
	}
	lane(0)
	wg.Wait()
	// A lane woken by a broken barrier panics with brokenBarrier; the
	// panic that broke it is the one to re-raise.
	for _, v := range panics {
		if _, woken := v.(brokenBarrier); v != nil && !woken {
			panic(v)
		}
	}
}

// Barrier is the meeting point of the lanes of one ForLanes call. A nil
// Barrier is the one-lane case, whose Wait returns at once.
type Barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	lanes   int
	arrived int
	// round counts the releases, and broken is set once a lane has
	// panicked; both change under mu and are atomic so that a spinning
	// lane can read them without it. opened is when the current step
	// began, the call's start or the last release, on the clock of
	// monotonic. spin is set when every lane can have a CPU of its own.
	round  atomic.Uint64
	broken atomic.Bool
	opened atomic.Int64
	spin   bool
}

// spinWait bounds how long an early lane spins at a barrier before it
// parks, and so does the length of the step it finished: a lane never
// spins for longer than the work it just did. Waking a parked lane takes
// an OS thread wake-up, tens of microseconds on a VM, and it lies on the
// critical path of every step: a one-bit SyncUpdate at the train_marsit
// shape took 0.80 ms a round at two lanes without the spin, 0.55 ms with
// it, and 0.73–0.82 ms with a 25–50 µs one. Short steps park at once, so
// a round that does almost no work does not spin for one.
const spinWait = 200 * time.Microsecond

// monotonic is the barrier's clock: nanoseconds since the package
// started, read from the monotonic clock.
func monotonic() int64 { return int64(time.Since(clockStart)) }

var clockStart = time.Now()

// brokenBarrier is what Wait panics with once another lane has panicked.
type brokenBarrier struct{}

// Wait returns once every lane of the call has called Wait as many times
// as this one has; what a lane wrote before its Wait is visible to every
// lane after theirs. Every lane must call it the same number of times.
func (b *Barrier) Wait() {
	if b == nil {
		return
	}
	b.mu.Lock()
	round := b.round.Load()
	if b.arrived++; b.arrived == b.lanes && !b.broken.Load() {
		b.arrived = 0
		b.opened.Store(monotonic())
		b.round.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	if b.spin {
		now := monotonic()
		deadline := now + min(int64(spinWait), now-b.opened.Load())
		for i := 1; b.round.Load() == round && !b.broken.Load(); i++ {
			if i%64 == 0 && monotonic() > deadline {
				break
			}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.round.Load() == round && !b.broken.Load() {
		b.cond.Wait()
	}
	if b.broken.Load() {
		panic(brokenBarrier{})
	}
}

// abort breaks the barrier for good and wakes every lane waiting at it.
func (b *Barrier) abort() {
	b.mu.Lock()
	b.broken.Store(true)
	b.cond.Broadcast()
	b.mu.Unlock()
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d != %d", a, b))
	}
}
