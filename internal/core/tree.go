package core

import (
	"fmt"

	"marsit/internal/bitvec"
	"marsit/internal/collective"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/topology"
)

// OneBitTreeAllReduce runs Marsit's unbiased sign aggregation over a
// binary tree — the "tree all-reduce" extension Section 5 mentions.
// Signs reduce upward with the weighted merge (each parent absorbs a
// child aggregate covering the child's whole subtree), then the root's
// consensus bits broadcast back down. Every transfer stays at one bit
// per element. bits[w] is worker w's local sign vector on entry; on
// return every bits[w] is the one consensus vector, which is an
// unbiased one-bit estimate of the sign average (the weighted-merge
// induction composes along any reduction tree). The entry vectors are
// consumed: each absorbed child's merges in place, and the consensus is
// one of them.
//
// rs must supply one Bernoulli stream per worker.
func OneBitTreeAllReduce(c *netsim.Cluster, tr *topology.Tree, bits []*bitvec.Vec, rs []*rng.PCG) {
	n := c.Size()
	if tr.Size() != n {
		panic("core: tree size mismatch")
	}
	if len(bits) != n || len(rs) != n {
		panic(fmt.Sprintf("core: need %d bit vectors and streams", n))
	}
	d := bits[0].Len()
	for w := 1; w < n; w++ {
		if bits[w].Len() != d {
			panic("core: bit vector length mismatch")
		}
	}
	if n == 1 {
		return
	}
	// The reduce goes up from the deepest level: a parent's current
	// aggregate covers everything it has absorbed so far, and an absorbed
	// child adds its whole subtree. A child is done with its vector once
	// absorbed, so the merge writes into it and the parent takes it over.
	// The root's consensus then broadcasts back down, shared.
	absorbed := make([]int, n)
	for w := range absorbed {
		absorbed[w] = 1
	}
	collective.TreeSchedule(c, tr, (d+7)/8,
		func(parent, child int) {
			// Merge child (weight = its absorbed subtree) into parent.
			MergeSigns(bits[child], bits[parent], absorbed[child], absorbed[parent], rs[parent])
			bits[parent] = bits[child]
			absorbed[parent] += absorbed[child]
		},
		func() {},
		func(_, child int) { bits[child] = bits[0] })
	c.Barrier()
}
