package runtime

import (
	"marsit/internal/bitvec"
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
// The signs stay bits from the compressor to the write-back: SSDM
// compresses straight into a segment bit vector (collective.
// SSDMBitsInto), the frame is its marshalled words, a received segment
// is decoded by reading norm·(±1) from a two-entry table per bit, and
// the gather forwards the bits it received. A rank keeps two segment bit
// vectors across hops (the one it sends, the one it receives; Resize
// reuses their words) and one pooled float segment for the
// decompress-add, so nothing of segment size is allocated per hop. What
// travels is what netsim charges — one bit per sign plus the ℓ2 norm,
// the sign frame of ps.go (encodeSignScale), one frame per hop.

// cascadingRingRank executes one rank's share of the cascading SSDM
// ring. vec is replaced by the (error-laden) estimate of the mean; r
// must be the rank's own SSDM stream. The caller owns the closing
// barrier (sequential collective.CascadingRing ends in c.Barrier()).
func cascadingRingRank(c *netsim.Cluster, ep transport.Endpoint, vec tensor.Vec, r *rng.PCG) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if n == 1 {
		return
	}
	d := len(vec)
	segs := tensor.Partition(d, n)
	next, prev := mod(rank+1, n), mod(rank-1, n)
	rk := newRankCtx(c, ep, rank)
	fn := float64(n)

	// summed is the per-hop decompress-add scratch, sized once for the
	// largest segment (Partition puts the remainder up front). cur holds
	// the payload this rank sends next, in the one it receives into.
	summed := transport.GetFloats(segs[0].Len())
	cur, in := new(bitvec.Vec), new(bitvec.Vec)
	var curNorm float64

	// Reduce phase: at step s forward the payload covering segment
	// (p−s) mod n, then decompress–add–recompress the received segment
	// (p−s−1) mod n into cur.
	for s := 0; s < n-1; s++ {
		out := segs[mod(rank-s, n)]
		if s == 0 {
			cur.Resize(out.Len())
			curNorm = collective.SSDMBitsInto(cur, out.Of(vec), r)
			rk.addCompress(out.Len())
		}
		seg := segs[mod(rank-s-1, n)]
		local := seg.Of(vec)
		sm := summed[:seg.Len()]
		data := rk.exchange(next, encodeSignScale(cur, curNorm), collective.SignWireBytes(out.Len()), prev)
		neg, pos := signPair(decodeSignScaleInto(data, in, seg.Len()))
		in.UnpackPairAdd(sm, local, neg, pos)
		rk.addDecompress(seg.Len())
		cur.Resize(seg.Len())
		curNorm = collective.SSDMBitsInto(cur, sm, r)
		rk.addCompress(seg.Len())
	}
	transport.PutFloats(summed)

	// Gather phase: position p holds the fully cascaded payload of
	// segment (p+1) mod n; circulate the final payloads unchanged,
	// decoding each segment into the local vector as it arrives (the
	// decompression is charged once at the end, exactly like the
	// sequential schedule's closing decode).
	writeCascadeSegment(segs[mod(rank+1, n)].Of(vec), cur, curNorm, fn)
	for s := 0; s < n-1; s++ {
		out := segs[mod(rank+1-s, n)]
		seg := segs[mod(rank-s, n)]
		data := rk.exchange(next, encodeSignScale(cur, curNorm), collective.SignWireBytes(out.Len()), prev)
		inNorm := decodeSignScaleInto(data, in, seg.Len())
		writeCascadeSegment(seg.Of(vec), in, inNorm, fn)
		cur, in = in, cur
		curNorm = inNorm
	}
	rk.addDecompress(d)
	rk.finish()
}

// unitSigns are the ±1 a sign bit stood for when the signs travelled as
// floats. They are a variable, not constants, so the products below stay
// multiplications: the compiler may rewrite x·(−1) as a negation, which
// flips a NaN's sign bit where the multiplication keeps it.
var unitSigns = [2]float64{-1, 1}

// signPair returns the two values a sign bit of a payload with scaling
// constant norm decodes to, for a clear bit and a set bit: norm·(−1) and
// norm·(+1), the very products the ±1 float decode formed, so every norm
// — NaN and ±Inf included — decodes to the same bits.
func signPair(norm float64) (neg, pos float64) {
	return norm * unitSigns[0], norm * unitSigns[1]
}

// writeCascadeSegment decodes one final payload into its segment of the
// local vector: dst[i] = norm · sign_i / n, from the two values that
// expression takes (the division stays a division — a reciprocal
// multiply would not be bit-identical to the sequential decode).
func writeCascadeSegment(dst []float64, bits *bitvec.Vec, norm, fn float64) {
	neg, pos := signPair(norm)
	bits.UnpackPair(dst, neg/fn, pos/fn)
}
