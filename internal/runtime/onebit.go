package runtime

import (
	"fmt"

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
// single-threaded engine would.
type MergeFunc func(rank int, agg, local *bitvec.Vec, aggWeight, localWeight int)

// OneBitTorusAllReduceRank executes one rank's share of the hierarchical
// one-bit torus schedule: the row ring first (the rank's aggregate then
// covers its full row), then the column ring with the row width as the
// base merge weight. bits enters holding the rank's packed signs and
// leaves holding the group-wide consensus; merge is invoked in the
// sequential schedule's order for this rank.
//
// On a torus with both dimensions >= 2, the column rings resolve
// disagreeing bits with per-column transient draws, so ranks in
// different columns can end with slightly different aggregates — the
// exact per-rank semantics of the sequential schedule. An algorithm
// layer that needs one cluster-wide aggregate (core.Marsit takes
// worker 0's) aligns afterwards with AlignBitsToRank0.
func OneBitTorusAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, tor *topology.Torus, bits *bitvec.Vec, merge MergeFunc) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if tor.Size() != n {
		panic("runtime: torus size mismatch")
	}
	if n < 2 {
		return
	}
	rows, cols := tor.Rows(), tor.Cols()
	d := bits.Len()
	rk := newRankCtx(c, ep, rank)
	r, p := tor.Coord(rank)
	if cols >= 2 {
		rowSegs := tensor.Partition(d, cols)
		next, prev := tor.Rank(r, p+1), tor.Rank(r, p-1)
		oneBitRingRank(rk, next, prev, p, cols, bits, rowSegs, 1, merge)
	}
	if rows >= 2 {
		colSegs := tensor.Partition(d, rows)
		next, prev := tor.Rank(r+1, p), tor.Rank(r-1, p)
		oneBitRingRank(rk, next, prev, r, rows, bits, colSegs, cols, merge)
	}
	rk.finish()
}

// AlignBitsToRank0 overwrites every rank's aggregate with rank 0's over
// control-plane frames (Wire = 0, no simulated bytes or time): the
// distributed counterpart of the sequential engine handing bits[0] to
// the whole cluster (Marsit.Sync's simulation shortcut), exactly like
// ClockBarrier reproduces the implicit lock step. A flat ring and a
// degenerate (single-row or single-column) torus reach an exact
// consensus on their own and do not need it; a torus with both
// dimensions >= 2 does, because its columns resolve disagreeing bits
// with independent transient draws.
func AlignBitsToRank0(ep transport.Endpoint, bits *bitvec.Vec) {
	rank, n := ep.Rank(), ep.Size()
	if n < 2 {
		return
	}
	if rank == 0 {
		for to := 1; to < n; to++ {
			buf := transport.GetBuffer(bits.MarshalBytes())
			bits.MarshalInto(buf)
			if err := ep.Send(to, transport.Packet{Data: buf}); err != nil {
				panic(fmt.Sprintf("runtime: consensus align to rank %d: %v", to, err))
			}
		}
		return
	}
	pkt, err := ep.Recv(0)
	if err != nil {
		panic(fmt.Sprintf("runtime: rank %d consensus align: %v", rank, err))
	}
	in, err := bitvec.Unmarshal(pkt.Data)
	if err != nil {
		panic(fmt.Sprintf("runtime: rank %d consensus align: %v", rank, err))
	}
	transport.PutBuffer(pkt.Data)
	// Insert copies whatever length arrives: a shorter aggregate would
	// leave the tail unaligned without a word, a longer one index out of
	// range inside bitvec.
	if in.Len() != bits.Len() {
		panic(fmt.Sprintf("runtime: rank %d consensus align: rank 0 sent %d bits, want %d", rank, in.Len(), bits.Len()))
	}
	bits.Insert(0, in)
}

// oneBitRingRank executes the one-bit schedule for one rank at position p
// of an m-ring over its full bit vector partitioned into segs. The
// rank's aggregate enters covering baseWeight workers per member and
// leaves covering baseWeight·m.
func oneBitRingRank(rk *rankCtx, next, prev, p, m int, bits *bitvec.Vec, segs []tensor.Segment, baseWeight int, merge MergeFunc) {
	if m < 2 {
		return
	}
	// Reduce-scatter: merge the received aggregate with the local segment
	// at every hop. bits itself is read-only during this phase, so
	// Extract sees the pre-collective signs exactly like the sequential
	// schedule's snapshots.
	var agg *bitvec.Vec
	for s := 0; s < m-1; s++ {
		out := agg
		if s == 0 {
			seg := segs[mod(p, m)]
			out = bits.Extract(seg.Lo, seg.Hi)
		}
		recvSeg := segs[mod(p-s-1, m)]
		in := rk.exchangeBits(next, out, prev, recvSeg.Len())
		local := bits.Extract(recvSeg.Lo, recvSeg.Hi)
		// The received aggregate covers (s+1)·baseWeight workers, the
		// local side baseWeight.
		merge(rk.rank, in, local, (s+1)*baseWeight, baseWeight)
		agg = in
	}

	// All-gather: position p holds the final aggregate of segment
	// (p+1) mod m; circulate the final segments unchanged.
	cur := agg
	bits.Insert(segs[mod(p+1, m)].Lo, cur)
	for s := 0; s < m-1; s++ {
		seg := segs[mod(p-s, m)]
		cur = rk.exchangeBits(next, cur, prev, seg.Len())
		bits.Insert(seg.Lo, cur)
	}
}

// exchangeBits sends out downstream and receives the upstream segment
// of want bits, charging one simulated bit per element (the packet's
// framing header is not charged). Payload buffers cycle through the
// shared pool: the outgoing marshal draws one and the consumed incoming
// one is returned.
func (r *rankCtx) exchangeBits(next int, out *bitvec.Vec, prev, want int) *bitvec.Vec {
	return unmarshalBits(r.rank, prev, r.exchange(next, marshalBits(out), out.WireBytes(), prev), want)
}
