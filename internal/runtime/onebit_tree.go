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
// back down — treeRank with one-bit payloads.
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
	rank, d := ep.Rank(), bits.Len()
	// A child has finished its own subtree when it sends, so its
	// aggregate weighs its subtree size, as in the sequential schedule.
	size := tr.SubtreeSizes()
	absorbed := 1
	treeRank(c, ep, tr, bits.WireBytes(),
		func(child int, data []byte) {
			agg := unmarshalBits(rank, child, data, d)
			transport.PutBuffer(data)
			merge(rank, agg, bits, size[child], absorbed)
			bits = agg
			absorbed += size[child]
		},
		func() []byte { return marshalBits(bits) },
		func() {},
		func(parent int, data []byte) { bits = unmarshalBits(rank, parent, data, d) })
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
// into a vector of its own; the payload stays the caller's to recycle or
// send on. The schedule fixes every frame's length, so any other is a
// peer running another dimension or partition: Insert would leave a
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
	return v
}
