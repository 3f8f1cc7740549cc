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
// schedule's order. bits enters holding the rank's packed signs, and
// spare is a vector of the same length. Both are the caller's, kept
// across rounds: every child and downlink frame is decoded into one of
// them (bitvec.UnmarshalInto), so a steady round allocates no bit
// vector. The result is one of the two, holding the cluster-wide
// consensus (the reduce swaps each merged aggregate into bits' place);
// it stays valid until the caller packs its next round into them. The
// caller owns the closing barrier. Exported for internal/core, which
// registers the onebit-tree descriptor (the weighted-merge semantics
// live there).
func OneBitTreeAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, tr *topology.Tree,
	bits, spare *bitvec.Vec, merge MergeFunc) *bitvec.Vec {
	rank, d := ep.Rank(), bits.Len()
	// A child has finished its own subtree when it sends, so its
	// aggregate weighs its subtree size, as in the sequential schedule.
	size := tr.SubtreeSizes()
	absorbed := 1
	treeRank(c, ep, tr, bits.WireBytes(),
		func(child int, data []byte) {
			unmarshalBits(spare, rank, child, data, d)
			transport.PutBuffer(data)
			merge(rank, spare, bits, size[child], absorbed)
			bits, spare = spare, bits
			absorbed += size[child]
		},
		func() []byte { return marshalBits(bits) },
		func() {},
		func(parent int, data []byte) { unmarshalBits(bits, rank, parent, data, d) })
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
// into dst, reusing its words; the payload stays the caller's to recycle
// or send on. The schedule fixes every frame's length, so any other is a
// peer running another dimension or partition: Insert would leave a
// short segment's tail unmerged without a word and fail a long one on an
// index inside bitvec, hence the named panic here.
func unmarshalBits(dst *bitvec.Vec, rank, peer int, data []byte, want int) {
	if err := bitvec.UnmarshalInto(dst, data); err != nil {
		panic(fmt.Sprintf("runtime: rank %d: peer %d: %v", rank, peer, err))
	}
	if dst.Len() != want {
		panic(fmt.Sprintf("runtime: rank %d: peer %d sent %d bits, want %d", rank, peer, dst.Len(), want))
	}
}
