package runtime

import (
	"marsit/internal/bitvec"
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// MergeFunc merges two one-bit sign aggregates for the given rank: agg
// (covering aggWeight workers, received from upstream) is combined in
// place with local (covering localWeight workers). The engine guarantees
// the callback for a rank runs only on that rank's goroutine and in the
// sequential schedule's merge order, so an implementation drawing from a
// per-rank RNG stream (core.MergeSigns) consumes it exactly as the
// single-threaded engine would. Neither vector outlives the call: the
// schedule reuses both at its next hop.
type MergeFunc func(rank int, agg, local *bitvec.Vec, aggWeight, localWeight int)

// OneBitAllReduceRank executes one rank's share of the Marsit one-bit
// all-reduce over tor, or over the flat ring (the 1×M torus) when tor is
// nil, in the bandwidth-optimal shape of TorusAllReduceRank: a one-bit
// reduce-scatter along the row, which leaves the rank owning row
// segment (p+1) mod cols merged over its row; a one-bit ring all-reduce
// down the column of that owned segment only, with the row width as the
// base merge weight; and the all-gather along the row. Every segment
// has exactly one merge chain, so every rank ends with the same bits.
// bits enters holding the rank's packed signs and leaves holding the
// cluster-wide consensus; merge is invoked in the sequential schedule's
// order for this rank.
func OneBitAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, tor *topology.Torus, bits *bitvec.Vec, merge MergeFunc) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if tor == nil {
		tor = topology.NewTorus(1, n)
	}
	if tor.Size() != n {
		panic("runtime: torus size mismatch")
	}
	if n < 2 {
		return
	}
	rows, cols := tor.Rows(), tor.Cols()
	rk := newRankCtx(c, ep, rank)
	r, p := tor.Coord(rank)
	// Two segment vectors carry every hop of every phase: agg the
	// aggregate (received, merged, sent on), local the rank's own bits of
	// the segment at hand.
	agg, local := new(bitvec.Vec), new(bitvec.Vec)
	rowSegs := tensor.Partition(bits.Len(), cols)
	rowNext, rowPrev := tor.Rank(r, p+1), tor.Rank(r, p-1)
	oneBitReduceScatter(rk, rowNext, rowPrev, p, cols, bits, rowSegs, 1, merge, agg, local)
	// The column ring runs over the owned row segment's sub-partition,
	// as absolute ranges of bits.
	owned := rowSegs[mod(p+1, cols)]
	sub := tensor.Partition(owned.Len(), rows)
	for i := range sub {
		sub[i].Lo += owned.Lo
		sub[i].Hi += owned.Lo
	}
	colNext, colPrev := tor.Rank(r+1, p), tor.Rank(r-1, p)
	oneBitReduceScatter(rk, colNext, colPrev, r, rows, bits, sub, cols, merge, agg, local)
	oneBitAllGather(rk, colNext, colPrev, r, rows, bits, sub, agg)
	oneBitAllGather(rk, rowNext, rowPrev, p, cols, bits, rowSegs, agg)
	rk.finish()
}

// oneBitReduceScatter runs the one-bit reduce-scatter for one rank at
// position p of an m-ring over the segments segs, absolute ranges of
// bits: the received aggregate is merged with the rank's own bits of the
// segment at every hop, and the rank ends by inserting the segment it
// owns, (p+1) mod m, into bits. The rank's bits enter covering
// baseWeight workers per member; the owned segment leaves covering
// baseWeight·m. Each frame is marshalled before the next one is decoded
// into the same vector.
func oneBitReduceScatter(rk *rankCtx, next, prev, p, m int, bits *bitvec.Vec, segs []tensor.Segment, baseWeight int, merge MergeFunc, agg, local *bitvec.Vec) {
	if m < 2 {
		return
	}
	// bits is read-only until the final insert, so ExtractInto sees the
	// signs the phase started from, like the sequential schedule's
	// snapshots.
	extract := func(seg tensor.Segment) *bitvec.Vec {
		local.Resize(seg.Len())
		bits.ExtractInto(local, seg.Lo)
		return local
	}
	for s := 0; s < m-1; s++ {
		out := agg
		if s == 0 {
			out = extract(segs[mod(p, m)])
		}
		recvSeg := segs[mod(p-s-1, m)]
		rk.exchangeBits(next, out, prev, agg, recvSeg.Len())
		// The received aggregate covers (s+1)·baseWeight workers, the
		// local side baseWeight.
		merge(rk.rank, agg, extract(recvSeg), (s+1)*baseWeight, baseWeight)
	}
	bits.Insert(segs[mod(p+1, m)].Lo, agg)
}

// oneBitAllGather circulates the final segments of an m-ring unchanged:
// position p starts from its owned segment (p+1) mod m of bits and
// inserts every segment it receives. buf carries the hops.
func oneBitAllGather(rk *rankCtx, next, prev, p, m int, bits *bitvec.Vec, segs []tensor.Segment, buf *bitvec.Vec) {
	if m < 2 {
		return
	}
	owned := segs[mod(p+1, m)]
	buf.Resize(owned.Len())
	bits.ExtractInto(buf, owned.Lo)
	for s := 0; s < m-1; s++ {
		seg := segs[mod(p-s, m)]
		rk.exchangeBits(next, buf, prev, buf, seg.Len())
		bits.Insert(seg.Lo, buf)
	}
}

// exchangeBits sends out downstream and decodes the upstream segment of
// want bits into in (which may be out: out is marshalled first), charging
// one simulated bit per element (the packet's framing header is not
// charged). Payload buffers cycle through the shared pool: the outgoing
// marshal draws one and the consumed incoming one is returned.
func (r *rankCtx) exchangeBits(next int, out *bitvec.Vec, prev int, in *bitvec.Vec, want int) {
	data := r.exchange(next, marshalBits(out), out.WireBytes(), prev)
	unmarshalBits(in, r.rank, prev, data, want)
	transport.PutBuffer(data)
}
