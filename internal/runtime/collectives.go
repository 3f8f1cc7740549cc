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
// (p−s−1) mod m. Encoding the outgoing segment before receiving snapshots
// it exactly like the sequential schedule.
func ringReduceScatter(rk *rankCtx, next, prev, p, m int, vec tensor.Vec, segs []tensor.Segment) {
	rk.setPhase("reduce-scatter")
	for s := 0; s < m-1; s++ {
		outV := segs[mod(p-s, m)].Of(vec)
		inV := segs[mod(p-s-1, m)].Of(vec)
		addFloats(inV, rk.exchange(next, encodeFloats(outV), len(outV)*floatWireBytes, prev))
	}
}

// ringAllGather runs the all-gather half: at step s the rank sends its
// freshest segment (p+1−s) mod m and overwrites segment (p−s) mod m with
// the received one.
func ringAllGather(rk *rankCtx, next, prev, p, m int, vec tensor.Vec, segs []tensor.Segment) {
	rk.setPhase("all-gather")
	for s := 0; s < m-1; s++ {
		outV := segs[mod(p+1-s, m)].Of(vec)
		inV := segs[mod(p-s, m)].Of(vec)
		copyFloats(inV, rk.exchange(next, encodeFloats(outV), len(outV)*floatWireBytes, prev))
	}
}

// TorusAllReduceRank executes one rank's share of the full-precision
// 2D-torus all-reduce (the hierarchical TAR of collective.TorusAllReduce):
// ring reduce-scatter along the rank's row, ring all-reduce along its
// column restricted to the owned segment, ring all-gather along the row,
// then the 1/M scaling. A nil tor is the flat ring (RAR), the 1×M torus
// with no column phase; on an M×1 torus the column ring is the ring. vec
// holds the element-wise mean on return. The caller owns the closing
// barrier (ClockBarrier).
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
	// owned segment; it becomes the global sum.
	if rows > 1 {
		owned := rowSegs[mod(p+1, cols)].Of(vec)
		sub := tensor.Partition(len(owned), rows)
		colNext, colPrev := tor.Rank(r+1, p), tor.Rank(r-1, p)
		ringReduceScatter(rk, colNext, colPrev, r, rows, owned, sub)
		ringAllGather(rk, colNext, colPrev, r, rows, owned, sub)
	}

	// Phase 3: ring all-gather along the row restores the full vector.
	ringAllGather(rk, rowNext, rowPrev, p, cols, vec, rowSegs)

	tensor.Scale(vec, 1/float64(n))
	rk.finish()
}
