package runtime

import (
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// gossipAverageRank executes one rank's share of the symmetric gossip
// step (collective.GossipAverage): exchange the full vector with both
// ring neighbors and replace it with the three-point average. The
// virtual-time arithmetic replicates netsim.Cluster.Exchange for the
// two-send, two-receive round:
//
//   - the rank's two sends serialize on its NIC in ascending target
//     order (Exchange sorts messages by From, then To), each packet
//     carrying its own send-start clock;
//   - its two arrivals serialize on the receive NIC in ascending
//     sender order (Exchange processes messages in From order).
//
// At M=2 both neighbors coincide on the single peer and the step
// degenerates to one symmetric exchange and the two-point average,
// exactly the sequential M=2 semantics. At M=1 it is a no-op.
func gossipAverageRank(c *netsim.Cluster, ep transport.Endpoint, vec tensor.Vec) {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if n == 1 {
		return
	}
	d := len(vec)
	wire := d * floatWireBytes
	rk := newRankCtx(c, ep, rank)

	if n == 2 {
		peer := 1 - rank
		data := rk.exchange(peer, encodeFloats(vec), wire, peer)
		pv := transport.GetFloats(d)
		copyFloats(pv, data)
		for i := 0; i < d; i++ {
			vec[i] = (vec[i] + pv[i]) / 2
		}
		transport.PutFloats(pv)
		rk.finish()
		return
	}

	next, prev := mod(rank+1, n), mod(rank-1, n)
	t1, t2 := next, prev
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	start := rk.clk
	// Both packets carry the same pre-step snapshot of the vector.
	rk.push(t1, encodeFloats(vec), wire)
	rk.push(t2, encodeFloats(vec), wire)

	// Arrivals serialize in ascending sender order.
	u1, u2 := next, prev
	if u2 < u1 {
		u1, u2 = u2, u1
	}
	recvAvail := start
	payloads := make(map[int][]byte, 2)
	for _, u := range []int{u1, u2} {
		p := rk.recv(u)
		recvAvail = rk.arrival(p, recvAvail)
		payloads[u] = p.Data
	}
	// The step ends when the sends (the clock after both pushes) and the
	// arrivals have.
	rk.clk = max(rk.clk, recvAvail)

	// Three-point average in the sequential association:
	// (prev + own + next) / 3.
	pv := transport.GetFloats(d)
	nv := transport.GetFloats(d)
	copyFloats(pv, payloads[prev])
	copyFloats(nv, payloads[next])
	for i := 0; i < d; i++ {
		vec[i] = (pv[i] + vec[i] + nv[i]) / 3
	}
	transport.PutFloats(pv)
	transport.PutFloats(nv)
	rk.finish()
}
