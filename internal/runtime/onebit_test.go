package runtime_test

import (
	"fmt"
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// TestOneBitFramesCheckLength checks every place a one-bit schedule
// decodes a peer's frame: a frame of the wrong length must stop the rank
// with the named error, not leave a half-written aggregate (short frame)
// or fail on an index inside bitvec (long frame). Both phases of the ring (each
// hop's segment length follows from the partition) and both directions of
// the tree (always the full vector). Two ranks, the peer played by hand:
// it sends the frames the schedule expects, except that the probed one is
// short, long or — the control, which must run to completion — exact.
func TestOneBitFramesCheckLength(t *testing.T) {
	const dim = 131
	segs := tensor.Partition(dim, 2)
	orMerge := func(_ int, agg, local *bitvec.Vec, _, _ int) { agg.Or(local) }
	ring := func(c *netsim.Cluster, ep transport.Endpoint, bits *bitvec.Vec) {
		runtime.OneBitAllReduceRank(c, ep, nil, bits, orMerge)
	}
	tree := func(c *netsim.Cluster, ep transport.Endpoint, bits *bitvec.Vec) {
		runtime.OneBitTreeAllReduceRank(c, ep, topology.NewTree(2), bits, bitvec.New(bits.Len()), orMerge)
	}
	for _, site := range []struct {
		name   string
		rank   int   // the rank under test; the other one is the hand-played peer
		frames []int // bit lengths of the frames the schedule has the peer send
		probe  int   // index of the frame whose length the cases vary
		run    func(*netsim.Cluster, transport.Endpoint, *bitvec.Vec)
	}{
		// Rank 1 of a 2-ring receives segment 0 in the reduce-scatter and
		// segment 1 in the all-gather.
		{"ring-reduce-scatter", 1, []int{segs[0].Len(), segs[1].Len()}, 0, ring},
		{"ring-all-gather", 1, []int{segs[0].Len(), segs[1].Len()}, 1, ring},
		{"tree-reduce-up", 0, []int{dim}, 0, tree},
		{"tree-broadcast-down", 1, []int{dim}, 0, tree},
	} {
		want := site.frames[site.probe]
		for _, tc := range []struct {
			name string
			sent int
		}{
			{"short", want - 30},
			{"long", want + 70},
			{"exact", want},
		} {
			t.Run(site.name+"/"+tc.name, func(t *testing.T) {
				fabric := transport.NewLoopback(2)
				defer fabric.Close()
				peer := 1 - site.rank
				for i, n := range site.frames {
					if i == site.probe {
						n = tc.sent
					}
					frame := bitvec.New(n)
					frame.FillBernoulli(rng.New(uint64(n)), 0.5)
					if err := fabric.Endpoint(peer).Send(site.rank, transport.Packet{Data: frame.Marshal()}); err != nil {
						t.Fatal(err)
					}
				}

				wantErr := ""
				if tc.sent != want {
					wantErr = fmt.Sprintf("runtime: rank %d: peer %d sent %d bits, want %d", site.rank, peer, tc.sent, want)
				}
				defer func() {
					got := ""
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
					if got != wantErr {
						t.Fatalf("panic %q, want %q", got, wantErr)
					}
				}()
				c := netsim.NewCluster(2, netsim.DefaultCostModel())
				site.run(c, fabric.Endpoint(site.rank), bitvec.New(dim))
			})
		}
	}
}
