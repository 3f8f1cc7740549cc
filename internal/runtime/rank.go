package runtime

import (
	"fmt"

	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/transport"
)

// The per-rank entry points below execute exactly one rank's share of a
// collective over its transport endpoint. The in-process Engine drives
// them from its worker goroutines; a distributed process (cmd/marsit-node)
// hosting a single rank of a TCP fabric calls them directly, so the same
// schedule — and therefore the same results, wire bytes and α–β virtual
// clocks — runs across processes and machines. The caller's cluster must
// span the full fabric; only the rank's own entries are touched.

// checkRankCluster validates the cluster spans the endpoint's fabric.
func checkRankCluster(c *netsim.Cluster, ep transport.Endpoint) {
	if c.Size() != ep.Size() {
		panic(fmt.Sprintf("runtime: cluster size %d != fabric size %d", c.Size(), ep.Size()))
	}
}

// ClockBarrier reproduces netsim.Cluster.Barrier for a distributed rank:
// every rank reports its virtual clock to rank 0, which answers with the
// fabric-wide maximum; each rank then advances to it, attributing the
// wait to transmission exactly like the coordinator barrier. The
// messages carry Wire = 0, so no simulated bytes or time are charged —
// the barrier is control plane, like the sequential engine's implicit
// lock step — and the whole exchange is one barrier event.
func ClockBarrier(c *netsim.Cluster, ep transport.Endpoint) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if n < 2 {
		return
	}
	rk := newRankCtx(c, ep, rank)
	t0 := rk.begin()
	if rank == 0 {
		for from := 1; from < n; from++ {
			rk.clk = max(rk.clk, rk.take(from).Clock)
		}
		for to := 1; to < n; to++ {
			rk.post(to, transport.Packet{Clock: rk.clk})
		}
	} else {
		rk.post(0, transport.Packet{Clock: rk.clk})
		rk.clk = rk.take(0).Clock
	}
	rk.end(t0, obs.Event{Kind: obs.KindBarrier, Hop: -1, VClock: rk.clk})
	rk.finish()
}
