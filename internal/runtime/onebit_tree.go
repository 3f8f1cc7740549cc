package runtime

import (
	"fmt"

	"marsit/internal/bitvec"
	"marsit/internal/netsim"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// OneBitTreeAllReduceRank executes one rank's share of Marsit's
// weighted sign aggregation over the binary tree
// (core.OneBitTreeAllReduce): packed signs reduce upward, each parent
// absorbing a child aggregate covering the child's whole subtree with
// the weighted Bernoulli merge, then the root's consensus broadcasts
// back down. The timing skeleton is treeAllReduceRank's (arrivals
// serialize in ascending child order, downlink sends in ascending
// child order) with one-bit payloads.
//
// merge runs only on this rank's goroutine and — because a node's
// children share a tree level and are absorbed in ascending order —
// consumes the rank's Bernoulli stream in exactly the sequential
// schedule's order. bits enters holding the rank's packed signs and
// leaves holding the cluster-wide consensus (returned, since the
// reduce swaps aggregates in). The caller owns the closing barrier.
// Exported for internal/core, which registers the onebit-tree
// descriptor (the weighted-merge semantics live there).
func OneBitTreeAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, tr *topology.Tree,
	bits *bitvec.Vec, merge MergeFunc) *bitvec.Vec {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if tr.Size() != n {
		panic("runtime: tree size mismatch")
	}
	if n == 1 {
		return bits
	}
	wire := bits.WireBytes()
	rk := newRankCtx(c, ep, rank)
	beta := c.Model.BytePeriod
	parent := tr.Parent(rank)
	children := tr.Children(rank)
	size := treeSubtreeSizes(tr)

	// Reduce up: absorb each child's subtree aggregate (ascending child
	// order), weighted by the subtree sizes exactly like the sequential
	// schedule (a child has finished its own subtree when it sends, so
	// its absorbed count equals its subtree size).
	rk.setPhase("reduce-up")
	absorbed := 1
	if len(children) > 0 {
		recvAvail := rk.clk
		for _, ch := range children {
			p := rk.recv(ch)
			recvAvail = rk.arrival(p, recvAvail)
			agg := unmarshalBits(rank, ch, p.Data, bits.Len())
			merge(rank, agg, bits, size[ch], absorbed)
			bits = agg
			absorbed += size[ch]
		}
		rk.clk = recvAvail
	}
	if parent >= 0 {
		rk.send(parent, marshalBits(bits), wire, rk.clk)
		rk.clk += float64(wire) * beta
		c.AccountBytes(rank, wire)
	}

	// Broadcast down: every non-root overwrites with the parent's copy
	// of the root consensus and forwards it.
	rk.setPhase("broadcast-down")
	if parent >= 0 {
		p := rk.recv(parent)
		rk.clk = rk.arrival(p, rk.clk)
		bits = unmarshalBits(rank, parent, p.Data, bits.Len())
	}
	for _, ch := range children {
		rk.send(ch, marshalBits(bits), wire, rk.clk)
		rk.clk += float64(wire) * beta
		c.AccountBytes(rank, wire)
	}
	rk.finish()
	return bits
}

// marshalBits serializes b into a pooled payload (ownership passes to
// the transport at Send).
func marshalBits(b *bitvec.Vec) []byte {
	buf := transport.GetBuffer(b.MarshalBytes())
	b.MarshalInto(buf)
	return buf
}

// unmarshalBits decodes the marshalBits payload rank received from peer
// and recycles it. The schedule fixes every frame's length, so any other
// is a peer running another dimension or partition: Insert would leave a
// short segment's tail unmerged without a word and fail a long one on an
// index inside bitvec, hence the named panic here.
func unmarshalBits(rank, peer int, data []byte, want int) *bitvec.Vec {
	v, err := bitvec.Unmarshal(data)
	if err != nil {
		panic(fmt.Sprintf("runtime: rank %d: peer %d: %v", rank, peer, err))
	}
	if v.Len() != want {
		panic(fmt.Sprintf("runtime: rank %d: peer %d sent %d bits, want %d", rank, peer, v.Len(), want))
	}
	transport.PutBuffer(data)
	return v
}
