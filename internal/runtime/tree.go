package runtime

import (
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// treeRank executes one rank's share of a reduce-and-broadcast over the
// binary tree tr, the per-rank form of collective.TreeSchedule for every
// payload. The sequential schedule runs one netsim.Exchange per tree
// level; this leg replicates its arithmetic node-locally:
//
//   - reduce up: a parent's child arrivals serialize on its NIC in
//     ascending child order (both children of a node share a level, so
//     they land in one Exchange), and absorb(child, frame) folds each in
//     that order; then the rank's uplink of encode() charges its own NIC,
//     or, at the root, root() finishes the reduction. A node receives at
//     its children's level and sends at its own, which is exactly the
//     program order below.
//   - broadcast down: a non-root takes its parent's frame into
//     adopt(parent, frame) at its arrival and sends that frame on; the
//     root encodes once. The downlinks serialize in ascending child
//     order, each packet carrying its own send-start clock: every child
//     but the last gets a pooled copy, made before the frame itself goes
//     to the last, and a leaf recycles the frame. adopt reads the frame
//     and must not recycle it.
//
// wire is the simulated size of every frame. The caller owns the
// closing barrier (ClockBarrier in the registry legs, matching the
// sequential engine's c.Barrier()).
func treeRank(c *netsim.Cluster, ep transport.Endpoint, tr *topology.Tree, wire int,
	absorb func(child int, data []byte), encode func() []byte, root func(), adopt func(parent int, data []byte)) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if tr.Size() != n {
		panic("runtime: tree size mismatch")
	}
	if n == 1 {
		return
	}
	rk := newRankCtx(c, ep, rank)
	parent := tr.Parent(rank)
	children := tr.Children(rank)

	rk.setPhase("reduce-up")
	for _, ch := range children {
		absorb(ch, rk.pull(ch))
	}
	if parent >= 0 {
		rk.push(parent, encode(), wire)
	} else {
		root()
	}

	rk.setPhase("broadcast-down")
	var frame []byte
	if parent >= 0 {
		frame = rk.pull(parent)
		adopt(parent, frame)
	} else {
		frame = encode()
	}
	if len(children) == 0 {
		transport.PutBuffer(frame)
	}
	for i, ch := range children {
		data := frame
		if i < len(children)-1 {
			data = transport.GetBuffer(len(frame))
			copy(data, frame)
		}
		rk.push(ch, data, wire)
	}
	rk.finish()
}

// treeAllReduceRank executes one rank's share of the binary-tree
// all-reduce (collective.TreeAllReduce): partial sums up to rank 0 (FP
// addition in the sequential order), the mean at the root, the mean back
// down.
func treeAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, tr *topology.Tree, vec tensor.Vec) {
	treeRank(c, ep, tr, len(vec)*floatWireBytes,
		func(_ int, data []byte) { addFloats(vec, data) },
		func() []byte { return encodeFloats(vec) },
		func() { tensor.Scale(vec, 1/float64(ep.Size())) },
		func(_ int, data []byte) { readFloats(vec, data) })
}
