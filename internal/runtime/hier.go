package runtime

import (
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// hierAllReduceRank executes one rank's share of the two-level
// hierarchical all-reduce (collective.HierarchicalAllReduce). The
// torus layout is read as hosts × local ranks: this rank lives on host
// h at local position g. Phase 1 ring-reduces (sum) within the host,
// phase 2 ring-reduces over the delegates (local rank 0 of every
// host) — the only inter-host traffic — phase 3 scales the delegate's
// copy to the global mean and chains it through the host (g−1 forwards
// to g). Non-delegates idle through phase 2 exactly like the
// sequential engine: the chain receive floors on their phase-1 clock.
//
// The caller owns the closing barrier (ClockBarrier in the registry
// leg, matching the sequential engine's c.Barrier()).
func hierAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, tor *topology.Torus, vec tensor.Vec) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if tor.Size() != n {
		panic("runtime: hierarchical layout size mismatch")
	}
	hosts, local := tor.Rows(), tor.Cols()
	h, g := tor.Coord(rank)
	d := len(vec)
	rk := newRankCtx(c, ep, rank)

	// Phase 1: intra-host ring sum (no scaling — the delegate scales
	// once the global sum is in).
	if local >= 2 {
		rk.setPhase("intra-host")
		segs := tensor.Partition(d, local)
		next, prev := tor.Rank(h, g+1), tor.Rank(h, g-1)
		ringReduceScatter(rk, next, prev, g, local, vec, segs)
		ringAllGather(rk, next, prev, g, local, vec, segs)
	}

	if g == 0 {
		// Phase 2: delegate ring across hosts.
		if hosts >= 2 {
			rk.setPhase("inter-host")
			segs := tensor.Partition(d, hosts)
			next, prev := tor.Rank(h+1, 0), tor.Rank(h-1, 0)
			ringReduceScatter(rk, next, prev, h, hosts, vec, segs)
			ringAllGather(rk, next, prev, h, hosts, vec, segs)
		}
		tensor.Scale(vec, 1/float64(n))
	}

	// Phase 3: chain broadcast down the host (receive before send, so
	// the mean sweeps from the delegate to the last local rank).
	if local >= 2 {
		rk.setPhase("chain")
		if g >= 1 {
			copyFloats(vec, rk.pull(tor.Rank(h, g-1)))
		}
		if g < local-1 {
			rk.push(tor.Rank(h, g+1), encodeFloats(vec), d*floatWireBytes)
		}
	}
	rk.finish()
}
