package runtime_test

import (
	"fmt"
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
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
		runtime.OneBitTreeAllReduceRank(c, ep, topology.NewTree(2), bits, orMerge)
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

// recordingFabric is a loopback fabric whose endpoints record every
// frame they post: its Wire charge and its payload length.
type recordingFabric struct {
	*transport.Loopback
	eps []*recordingEndpoint
}

type recordingEndpoint struct {
	transport.Endpoint
	frames []sentFrame
}

type sentFrame struct{ to, wire, payload int }

func newRecordingFabric(n int) *recordingFabric {
	f := &recordingFabric{Loopback: transport.NewLoopback(n)}
	for r := 0; r < n; r++ {
		f.eps = append(f.eps, &recordingEndpoint{Endpoint: f.Loopback.Endpoint(r)})
	}
	return f
}

func (f *recordingFabric) Endpoint(rank int) transport.Endpoint { return f.eps[rank] }

func (e *recordingEndpoint) Send(to int, p transport.Packet) error {
	e.frames = append(e.frames, sentFrame{to: to, wire: p.Wire, payload: len(p.Data)})
	return e.Endpoint.Send(to, p)
}

// TestOneBitRoundCarriesNoHiddenPayload records every frame of a one-bit
// "marsit" round on the flat ring and on every torus shape: the only
// frames the cost model does not charge (Wire = 0) must be control
// frames no larger than a ClockBarrier's, and the charged frames must
// add up to the cluster's wire bytes. A rank that moved data outside
// the schedule — aligning its bits to another rank's, say — would post
// uncharged payload frames that no wire or clock figure shows.
func TestOneBitRoundCarriesNoHiddenPayload(t *testing.T) {
	const d = 97
	barrier := newRecordingFabric(2)
	bc := netsim.NewCluster(2, netsim.DefaultCostModel())
	done := make(chan struct{})
	go func() { runtime.ClockBarrier(bc, barrier.Endpoint(1)); close(done) }()
	runtime.ClockBarrier(bc, barrier.Endpoint(0))
	<-done
	barrierPayload := 0
	for _, ep := range barrier.eps {
		for _, f := range ep.frames {
			barrierPayload = max(barrierPayload, f.payload)
		}
	}
	barrier.Close()

	desc, err := registry.Get("marsit")
	if err != nil {
		t.Fatal(err)
	}
	for _, tor := range []*topology.Torus{nil,
		topology.NewTorus(2, 2), topology.NewTorus(2, 3), topology.NewTorus(3, 2),
		topology.NewTorus(1, 4), topology.NewTorus(4, 1)} {
		n, name := 4, "ring"
		if tor != nil {
			n, name = tor.Size(), fmt.Sprintf("%dx%d", tor.Rows(), tor.Cols())
		}
		t.Run(name, func(t *testing.T) {
			fabric := newRecordingFabric(n)
			eng := runtime.NewWithOwnedTransport(fabric)
			defer eng.Close()
			cl, err := eng.Open(desc, &registry.Opts{Dim: d, GlobalLR: 0.1, Torus: tor, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			c := netsim.NewCluster(n, netsim.DefaultCostModel())
			cl.Run(c, equivtest.RandVecs(9, n, d))
			charged := int64(0)
			for from, ep := range fabric.eps {
				for _, f := range ep.frames {
					charged += int64(f.wire)
					if f.wire == 0 && f.payload > barrierPayload {
						t.Errorf("rank %d → %d: uncharged frame with a %d-byte payload (a barrier's is %d)",
							from, f.to, f.payload, barrierPayload)
					}
				}
			}
			if charged != c.TotalBytes() {
				t.Fatalf("frames charge %d wire bytes, the cluster %d", charged, c.TotalBytes())
			}
		})
	}
}
