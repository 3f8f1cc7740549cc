package transport

import (
	"sync"

	"marsit/internal/obs"
)

// Payload buffers flow sender → fabric → receiver and are dead once the
// receiver has decoded them, so the hot collective loops would otherwise
// allocate one slice per hop. GetBuffer/PutBuffer recycle them through a
// sync.Pool shared by every backend.
//
// Ownership contract: a sender that obtains a buffer from GetBuffer gives
// it up at Send (the general Packet.Data rule — no mutation or reuse after
// Send). Exactly one party recycles each buffer: the receiver once it has
// decoded Packet.Data (in-process backends deliver the sender's slice by
// reference), or the wire backend's writer once the bytes are on the
// socket. Recycling is cooperative — dropping a buffer instead of
// returning it is always safe, it merely costs an allocation later.

// bufPool recycles payload buffers of mixed capacity. Entries are stored
// through a pointer so Put does not allocate an interface box per call.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuffer returns a buffer of length n, reusing pooled capacity when
// possible. The contents are unspecified; callers overwrite all n bytes.
func GetBuffer(n int) []byte {
	p := bufPool.Get().(*[]byte)
	hit := cap(*p) >= n
	if reg := obs.Active(); reg != nil {
		reg.Pool.Gets.Inc()
		if hit {
			reg.Pool.Hits.Inc()
		}
	}
	if hit {
		b := (*p)[:n]
		return b
	}
	// Too small for this request: let it be collected and grow a fresh
	// one (segment sizes within a collective are near-uniform, so this
	// settles quickly).
	return make([]byte, n)
}

// PutBuffer returns a buffer to the pool. The caller must not touch b
// afterwards. Buffers of any origin are accepted.
func PutBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	if reg := obs.Active(); reg != nil {
		reg.Pool.Puts.Inc()
	}
	b = b[:0]
	bufPool.Put(&b)
}

// The typed pools below extend the same recycling discipline to the
// element scratch of the hot collective loops (cascading's per-hop
// sum/sign buffers, the vote vector the sign-sum ring accumulates in):
// without them every hop or op allocates a fresh []float64/[]int64 that
// dies as soon as the segment is merged or the update decoded. Same cooperative
// contract as GetBuffer/PutBuffer — contents unspecified, exactly one
// Put per Get, dropping a buffer is always safe.

var floatPool = sync.Pool{New: func() any { b := make([]float64, 0, 64); return &b }}

// GetFloats returns a float64 scratch slice of length n from the pool.
func GetFloats(n int) []float64 {
	p := floatPool.Get().(*[]float64)
	if cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

// PutFloats recycles a GetFloats slice.
func PutFloats(b []float64) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	floatPool.Put(&b)
}

var int64Pool = sync.Pool{New: func() any { b := make([]int64, 0, 64); return &b }}

// GetInt64s returns an int64 scratch slice of length n from the pool.
func GetInt64s(n int) []int64 {
	p := int64Pool.Get().(*[]int64)
	if cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int64, n)
}

// PutInt64s recycles a GetInt64s slice.
func PutInt64s(b []int64) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	int64Pool.Put(&b)
}
