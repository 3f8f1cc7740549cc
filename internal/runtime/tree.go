package runtime

import (
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// treeAllReduceRank executes one rank's share of the binary-tree
// all-reduce (collective.TreeAllReduce): reduce up to rank 0, scale to
// the mean at the root, broadcast back down. The sequential schedule
// runs one netsim.Exchange per tree level; this leg replicates its
// arithmetic node-locally:
//
//   - reduce up: a parent's child arrivals serialize on its NIC in
//     ascending child order (both children of a node share a level, so
//     they land in one Exchange); a child's uplink send charges its own
//     NIC. A node receives at its children's level and sends at its
//     own, which is exactly the program order below.
//   - broadcast down: a parent's downlink sends serialize in ascending
//     child order, each packet carrying its own send-start clock; a
//     child's arrival floors on its local clock.
//
// The caller owns the closing barrier (ClockBarrier in the registry
// leg, matching the sequential engine's c.Barrier()).
func treeAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, tr *topology.Tree, vec tensor.Vec) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if tr.Size() != n {
		panic("runtime: tree size mismatch")
	}
	if n == 1 {
		return
	}
	wire := len(vec) * floatWireBytes
	rk := newRankCtx(c, ep, rank)
	alpha, beta := c.Model.Latency, c.Model.BytePeriod
	parent := tr.Parent(rank)
	children := tr.Children(rank)

	// Reduce up: absorb the children (ascending, FP addition in the
	// sequential order), then push the partial sum to the parent.
	rk.setPhase("reduce-up")
	if len(children) > 0 {
		recvAvail := rk.clk
		for _, ch := range children {
			p := rk.recv(ch)
			recvStart := p.Clock + alpha
			if recvAvail > recvStart {
				recvStart = recvAvail
			}
			recvAvail = recvStart + float64(p.Wire)*beta
			addFloats(vec, p.Data)
		}
		rk.clk = recvAvail
	}
	if parent >= 0 {
		rk.send(parent, encodeFloats(vec), wire, rk.clk)
		rk.clk += float64(wire) * beta
	} else {
		tensor.Scale(vec, 1/float64(n))
	}

	// Broadcast down: take the mean from the parent, forward it to the
	// children in ascending order with per-packet send-start clocks.
	rk.setPhase("broadcast-down")
	if parent >= 0 {
		p := rk.recv(parent)
		recvStart := p.Clock + alpha
		if rk.clk > recvStart {
			recvStart = rk.clk
		}
		rk.clk = recvStart + float64(p.Wire)*beta
		copyFloats(vec, p.Data)
	}
	for _, ch := range children {
		rk.send(ch, encodeFloats(vec), wire, rk.clk)
		rk.clk += float64(wire) * beta
	}
	rk.finish()
}

// treeSubtreeSizes returns the subtree size of every rank — the merge
// weights of the one-bit tree schedule, a pure function of n that every
// rank derives locally.
func treeSubtreeSizes(tr *topology.Tree) []int {
	n := tr.Size()
	size := make([]int, n)
	for w := n - 1; w >= 0; w-- {
		size[w] = 1
		for _, ch := range tr.Children(w) {
			size[w] += size[ch]
		}
	}
	return size
}
