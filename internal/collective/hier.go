package collective

import (
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// HierarchicalAllReduce is the two-level datacenter all-reduce: the
// torus layout is read as hosts × local ranks (row h is one host, its
// cols entries the ranks co-located on it). Three phases:
//
//  1. intra-host ring all-reduce (sum) within every host — the cheap
//     local fabric, every co-located rank ends with the host sum;
//  2. inter-host ring all-reduce (sum) over one delegate per host
//     (local rank 0) — the only phase that crosses the expensive
//     host-to-host links;
//  3. each delegate scales to the global mean and chain-broadcasts it
//     through its host (local rank s−1 forwards to s).
//
// This is how production all-reduce scales past one machine: the full
// gradient crosses the inter-host fabric once per delegate instead of
// once per rank. Degenerate layouts work: one rank per host (cols = 1)
// is a flat delegate ring, one host (rows = 1) is a flat local ring.
// On return every vector holds the element-wise mean.
func HierarchicalAllReduce(c *netsim.Cluster, tor *topology.Torus, vecs []tensor.Vec) {
	d := checkShape(c, vecs)
	if tor.Size() != c.Size() {
		panic("collective: hierarchical layout size mismatch")
	}
	n := c.Size()
	hosts, local := tor.Rows(), tor.Cols()

	// Phase 1: intra-host sum. Every rank of a host ends with the host
	// sum (a size-1 host is skipped).
	for _, g := range tor.RowGroups() {
		ringSum(c, g, viewsOf(vecs, g, tensor.Segment{Hi: d}))
	}

	// Phase 2: delegate ring over local rank 0 of every host.
	delegates := make([]int, hosts)
	for h := 0; h < hosts; h++ {
		delegates[h] = tor.Rank(h, 0)
	}
	ringSum(c, delegates, viewsOf(vecs, delegates, tensor.Segment{Hi: d}))

	// Delegates hold the global sum; scale to the mean before fan-out.
	for h := 0; h < hosts; h++ {
		tensor.Scale(vecs[delegates[h]], 1/float64(n))
	}

	// Phase 3: chain broadcast down every host — local rank s−1 forwards
	// the mean to s, all hosts in parallel.
	bytes := d * float32WireBytes
	for s := 1; s < local; s++ {
		msgs := make([]netsim.Message, 0, hosts)
		for h := 0; h < hosts; h++ {
			msgs = append(msgs, netsim.Message{
				From:  tor.Rank(h, s-1),
				To:    tor.Rank(h, s),
				Bytes: bytes,
			})
		}
		c.Exchange(msgs)
		for h := 0; h < hosts; h++ {
			copy(vecs[tor.Rank(h, s)], vecs[tor.Rank(h, s-1)])
		}
	}
	c.Barrier()
}
