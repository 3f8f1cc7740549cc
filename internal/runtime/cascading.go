package runtime

import (
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
// The hot loop allocates nothing of segment size: sign and sum scratch
// cycles through the shared transport pools (one live sign buffer plus
// one sum buffer per rank, regardless of ring size or round count), and
// each hop's payload can be chunk-pipelined (rankCtx.chunks). What
// travels is what netsim charges — one bit per sign plus the ℓ2 norm,
// the sign frame of ps.go (encodeSigns); every chunk of a hop carries
// the norm.

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
	// (p−s−1) mod n. The outgoing sign buffer is pooled and recycled
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
		rk.exchangeChunked(next, prev, out.Len(), in.Len(), collective.SignWireBytes(out.Len()),
			func(_, lo, hi int) []byte {
				return encodeSigns(curSigns[lo:hi], curNorm)
			},
			func(_, lo, hi int, data []byte) {
				// The received signs land in sm and are combined in place.
				inNorm := decodeSigns(data, sm[lo:hi])
				for i := lo; i < hi; i++ {
					sm[i] = inNorm*sm[i] + local[i]
				}
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
			func(_, lo, hi int) []byte {
				return encodeSigns(curSigns[lo:hi], curNorm)
			},
			func(_, lo, hi int, data []byte) {
				inNorm = decodeSigns(data, inSigns[lo:hi])
				writeCascadeSegment(dst[lo:hi], inNorm, inSigns[lo:hi], fn)
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
