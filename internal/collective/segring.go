package collective

import (
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// SegmentedRingAllReduce is the segmented-ring all-reduce of Jia et al.
// (the paper's [25]), which Section 5 names as a further MAR paradigm
// Marsit extends to. The vector is partitioned into chunks·M segments
// instead of M; the ring runs the reduce-scatter/all-gather schedule
// chunk by chunk, so per-message payloads shrink by the chunk factor
// and transfers pipeline across chunks (successive chunks occupy the
// NICs back to back, hiding latency behind serialization).
//
// chunks = 1 degenerates to plain RingAllReduce. On return every
// vector holds the element-wise mean.
func SegmentedRingAllReduce(c *netsim.Cluster, vecs []tensor.Vec, chunks int) {
	d := checkShape(c, vecs)
	if chunks < 1 {
		panic("collective: segmented ring needs chunks >= 1")
	}
	n := c.Size()
	if n == 1 {
		return
	}
	parts := tensor.Partition(d, chunks)
	ranks := topology.AllRanks(n)
	for _, part := range parts {
		views := make([]tensor.Vec, n)
		for w := 0; w < n; w++ {
			views[w] = part.Of(vecs[w])
		}
		if part.Len() > 0 {
			columnRingSum(c, ranks, views, tensor.Partition(part.Len(), n))
		}
	}
	scaleAll(vecs, 1/float64(n))
	c.Barrier()
}
