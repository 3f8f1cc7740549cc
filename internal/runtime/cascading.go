package runtime

import (
	"encoding/binary"
	"fmt"
	"math"

	"marsit/internal/collective"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// This file ports the cascading-compression workflow of Section 3.2 to
// the concurrent engine: a ring reduce-scatter where every hop
// decompresses the received SSDM segment, adds the local one,
// re-compresses and forwards — accumulating compression error at every
// hop — followed by a gather circulating the final payloads. The
// per-hop (de)compression charges interleave with the exchanges exactly
// as in collective.CascadingRing, and each rank's stochastic draws come
// from its own goroutine-confined stream in the sequential order.
//
// The hot loop is allocation-free: sign and sum scratch cycles through
// the shared transport pools (one live sign buffer plus one sum buffer
// per rank, regardless of ring size or round count), received signs are
// read straight out of the payload bytes, and each hop's payload can be
// chunk-pipelined (rankCtx.chunks) with the ℓ2 norm riding the first
// chunk.

// encodeCascadeChunk serializes one cascading chunk: the ℓ2 norm (first
// chunk of a hop only) followed by the chunk's ±1 signs as raw float64
// bits (an exact round-trip; the simulated wire charges 1 bit per
// element + the constant regardless).
func encodeCascadeChunk(norm float64, signs []float64, withNorm bool) []byte {
	head := 0
	if withNorm {
		head = 8
	}
	out := transport.GetBuffer(head + 8*len(signs))
	if withNorm {
		binary.LittleEndian.PutUint64(out, math.Float64bits(norm))
	}
	for i, s := range signs {
		binary.LittleEndian.PutUint64(out[head+8*i:], math.Float64bits(s))
	}
	return out
}

// cascadeChunkBody validates a received chunk of n signs and returns
// the norm (when the chunk leads a hop) and the sign bytes.
func cascadeChunkBody(data []byte, n int, withNorm bool) (norm float64, body []byte) {
	head := 0
	if withNorm {
		head = 8
	}
	if len(data) != head+8*n {
		panic(fmt.Sprintf("runtime: cascade payload of %d bytes for %d elements", len(data), n))
	}
	if withNorm {
		norm = math.Float64frombits(binary.LittleEndian.Uint64(data))
	}
	return norm, data[head:]
}

// cascadingRingRank executes one rank's share of the cascading SSDM
// ring. vec is replaced by the (error-laden) estimate of the mean; r
// must be the rank's own SSDM stream. chunks is the hop-pipelining
// degree (Opts.Chunks). The caller owns the closing barrier
// (sequential collective.CascadingRing ends in c.Barrier()).
func cascadingRingRank(c *netsim.Cluster, ep transport.Endpoint, vec tensor.Vec, r *rng.PCG, chunks int) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if n == 1 {
		return
	}
	d := len(vec)
	segs := tensor.Partition(d, n)
	next, prev := mod(rank+1, n), mod(rank-1, n)
	rk := newRankCtxChunks(c, ep, rank, chunks)
	fn := float64(n)

	// summed is the per-hop decompress-add scratch, sized once for the
	// largest segment (Partition puts the remainder up front).
	summed := transport.GetFloats(segs[0].Len())

	// Reduce phase: at step s forward the payload covering segment
	// (p−s) mod n, then decompress–add–recompress the received segment
	// (p−s−1) mod n. The received signs are combined straight from the
	// payload bytes; the outgoing sign buffer is pooled and recycled
	// after each recompression.
	var curNorm float64
	var curSigns []float64
	for s := 0; s < n-1; s++ {
		out := segs[mod(rank-s, n)]
		if s == 0 {
			curSigns = transport.GetFloats(out.Len())
			curNorm = collective.SSDMSignsInto(curSigns, out.Of(vec), r)
			rk.addCompress(out.Len())
		}
		in := segs[mod(rank-s-1, n)]
		local := in.Of(vec)
		sm := summed[:in.Len()]
		var inNorm float64
		rk.exchangeChunked(next, prev, out.Len(), in.Len(), collective.SignWireBytes(out.Len()),
			func(ci, lo, hi int) []byte {
				return encodeCascadeChunk(curNorm, curSigns[lo:hi], ci == 0)
			},
			func(ci, lo, hi int, data []byte) {
				norm, body := cascadeChunkBody(data, hi-lo, ci == 0)
				if ci == 0 {
					inNorm = norm
				}
				for i := 0; i < hi-lo; i++ {
					sign := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
					sm[lo+i] = inNorm*sign + local[lo+i]
				}
				transport.PutBuffer(data)
			})
		rk.addDecompress(in.Len())
		transport.PutFloats(curSigns)
		curSigns = transport.GetFloats(in.Len())
		curNorm = collective.SSDMSignsInto(curSigns, sm, r)
		rk.addCompress(in.Len())
	}
	transport.PutFloats(summed)

	// Gather phase: position p holds the fully cascaded payload of
	// segment (p+1) mod n; circulate the final payloads unchanged,
	// decoding each segment into the local vector as it arrives (the
	// decompression is charged once at the end, exactly like the
	// sequential schedule's closing decode).
	writeCascadeSegment(segs[mod(rank+1, n)].Of(vec), curNorm, curSigns, fn)
	for s := 0; s < n-1; s++ {
		out := segs[mod(rank+1-s, n)]
		in := segs[mod(rank-s, n)]
		dst := in.Of(vec)
		inSigns := transport.GetFloats(in.Len())
		var inNorm float64
		rk.exchangeChunked(next, prev, out.Len(), in.Len(), collective.SignWireBytes(out.Len()),
			func(ci, lo, hi int) []byte {
				return encodeCascadeChunk(curNorm, curSigns[lo:hi], ci == 0)
			},
			func(ci, lo, hi int, data []byte) {
				norm, body := cascadeChunkBody(data, hi-lo, ci == 0)
				if ci == 0 {
					inNorm = norm
				}
				for i := 0; i < hi-lo; i++ {
					sign := math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
					inSigns[lo+i] = sign
					dst[lo+i] = inNorm * sign / fn
				}
				transport.PutBuffer(data)
			})
		transport.PutFloats(curSigns)
		curSigns, curNorm = inSigns, inNorm
	}
	transport.PutFloats(curSigns)
	rk.addDecompress(d)
	rk.finish()
}

// writeCascadeSegment decodes one final payload into its segment of the
// local vector: dst[i] = norm · sign_i / n (the division stays a
// division — a reciprocal multiply would not be bit-identical to the
// sequential decode).
func writeCascadeSegment(dst []float64, norm float64, signs []float64, fn float64) {
	for i := range dst {
		dst[i] = norm * signs[i] / fn
	}
}
