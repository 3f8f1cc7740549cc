package runtime

import (
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// mod returns i modulo m in [0, m).
func mod(i, m int) int { return ((i % m) + m) % m }

// ringReduceScatter runs the reduce-scatter half of ring all-reduce for
// one rank at ring position p of an m-ring: at step s it sends segment
// (p−s) mod m downstream and accumulates the received segment
// (p−s−1) mod m. Only the first outgoing segment is encoded; every
// later one is the frame just received with the rank's local segment
// added in, forwarded as it is. The last hop adds into the segment the
// rank ends owning, (p+1) mod m, which then holds the sum; the other
// segments of vec are left stale for the all-gather to overwrite.
func ringReduceScatter(rk *rankCtx, next, prev, p, m int, vec tensor.Vec, segs []tensor.Segment) {
	if m < 2 {
		return
	}
	rk.setPhase("reduce-scatter")
	frame := encodeFloats(segs[p].Of(vec))
	for s := 0; s < m-1; s++ {
		frame = rk.exchange(next, frame, segs[mod(p-s, m)].Len()*floatWireBytes, prev)
		local := segs[mod(p-s-1, m)].Of(vec)
		if s < m-2 {
			addIntoFrame(frame, local)
		} else {
			addFloats(local, frame)
		}
	}
}

// ringAllGather runs the all-gather half: at step s the rank sends its
// freshest segment (p+1−s) mod m and overwrites segment (p−s) mod m with
// the received one. Only the owned segment (p+1) mod m is encoded; every
// received frame is copied out and, but at the last hop, sent on.
func ringAllGather(rk *rankCtx, next, prev, p, m int, vec tensor.Vec, segs []tensor.Segment) {
	if m < 2 {
		return
	}
	rk.setPhase("all-gather")
	frame := encodeFloats(segs[mod(p+1, m)].Of(vec))
	for s := 0; s < m-1; s++ {
		frame = rk.exchange(next, frame, segs[mod(p+1-s, m)].Len()*floatWireBytes, prev)
		dst := segs[mod(p-s, m)].Of(vec)
		if s < m-2 {
			readFloats(dst, frame)
		} else {
			copyFloats(dst, frame)
		}
	}
}

// TorusAllReduceRank executes one rank's share of the full-precision
// 2D-torus all-reduce (the hierarchical TAR of collective.TorusAllReduce):
// ring reduce-scatter along the rank's row, ring all-reduce along its
// column restricted to the owned segment, ring all-gather along the row.
// A nil tor is the flat ring (RAR), the 1×M torus whose column ring is a
// single rank; on an M×1 torus the column ring is the ring. The 1/M
// scaling is applied once per element, by the rank that finishes its
// global sum, between the column reduce-scatter and the gathers; every
// other rank receives the scaled bits by copy — the same multiply on the
// same operand as the sequential engine's closing scale. vec holds the
// element-wise mean on return. The caller owns the closing barrier
// (ClockBarrier).
func TorusAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, tor *topology.Torus, vec tensor.Vec) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if tor == nil {
		tor = topology.NewTorus(1, n)
	}
	if tor.Size() != n {
		panic("runtime: torus size mismatch")
	}
	rows, cols := tor.Rows(), tor.Cols()
	rk := newRankCtx(c, ep, rank)
	r, p := tor.Coord(rank)

	rowSegs := tensor.Partition(len(vec), cols)
	rowNext, rowPrev := tor.Rank(r, p+1), tor.Rank(r, p-1)

	// Phase 1: ring reduce-scatter along the row. The rank ends owning
	// row segment (p+1) mod cols with the row-wide sum.
	ringReduceScatter(rk, rowNext, rowPrev, p, cols, vec, rowSegs)

	// Phase 2: ring all-reduce along the column, restricted to the
	// owned segment; it becomes the global sum. Column position r
	// finishes sub-segment (r+1) mod rows and scales it to the mean
	// before the gathers spread it; a one-rank column owns it whole.
	owned := rowSegs[mod(p+1, cols)].Of(vec)
	sub := tensor.Partition(len(owned), rows)
	colNext, colPrev := tor.Rank(r+1, p), tor.Rank(r-1, p)
	ringReduceScatter(rk, colNext, colPrev, r, rows, owned, sub)
	tensor.Scale(sub[mod(r+1, rows)].Of(owned), 1/float64(n))
	ringAllGather(rk, colNext, colPrev, r, rows, owned, sub)

	// Phase 3: ring all-gather along the row restores the full vector.
	ringAllGather(rk, rowNext, rowPrev, p, cols, vec, rowSegs)
	rk.finish()
}
