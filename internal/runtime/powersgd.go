package runtime

import (
	"marsit/internal/collective"
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// powerSGDRingRank executes one rank's share of one PowerSGD round
// (collective.PowerSGDRing): P = M·Q ring-all-reduced, the identical
// mean P orthonormalized everywhere, Q' = Mᵀ·P ring-all-reduced (the
// second, dependent latency chain the paper critiques), then the
// low-rank reconstruction P·Q̄'ᵀ. Every rank owns a full replica of the
// warm-started state: the all-reduces leave bit-identical mean
// matrices on every rank and the orthonormalization is deterministic,
// so the replicas never diverge from the sequential engine's single
// shared state.
//
// Each of the two all-reduces closes with a ClockBarrier, mirroring
// the c.Barrier() inside the sequential collective.RingAllReduce; the
// caller owns the final barrier after the reconstruction.
func powerSGDRingRank(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec,
	st *collective.PowerSGDRingState) {
	checkRankCluster(c, ep)
	rank := ep.Rank()
	d := len(grad)

	// Step 1: P = M·Q, first all-reduce (mean).
	p := st.ComputeP(grad)
	c.AddCompress(rank, d)
	TorusAllReduceRank(c, ep, nil, p)
	ClockBarrier(c, ep)

	// Step 2: identical orthonormalization everywhere (uncharged, as in
	// the sequential engine).
	st.Orthonormalize(p)

	// Step 3: Q' = Mᵀ·P, second (dependent) all-reduce.
	q := st.ComputeQ(grad, p)
	c.AddCompress(rank, d)
	TorusAllReduceRank(c, ep, nil, q)
	ClockBarrier(c, ep)

	// Step 4: warm-start and reconstruct.
	st.SetQ(q)
	st.Reconstruct(grad, p, q)
	c.AddDecompress(rank, d)
}
