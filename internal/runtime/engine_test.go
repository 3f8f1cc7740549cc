package runtime_test

import (
	"fmt"
	"strings"
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/collective/registry"
	"marsit/internal/core"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// The cross-engine matrix for the collectives with a sequential
// counterpart lives in equiv_test.go (one spec per collective, run by
// the shared equivtest harness over loopback and TCP). This file keeps
// what does not fit the spec shape: the one-bit schedule against its
// lockstep reference, and the engine's execution semantics (ParallelFor,
// panic propagation).

// mergeWithStreams builds a MergeFunc backed by per-rank RNG streams,
// the exact shape core.Marsit uses.
func mergeWithStreams(seed uint64, n int) runtime.MergeFunc {
	streams := rng.Streams(seed, n)
	return func(rank int, agg, local *bitvec.Vec, aw, bw int) {
		core.MergeSigns(agg, local, aw, bw, streams[rank])
	}
}

// oneBitAllReduce runs the per-rank one-bit all-reduce with a custom
// merge on every worker of eng, through an ad-hoc descriptor opened like
// any registered one (core.RankSync takes the same route with
// core.MergeSigns): over tor, or the flat ring when tor is nil.
// bits[rank] is reduced in place.
func oneBitAllReduce(t testing.TB, eng *runtime.Engine, c *netsim.Cluster, tor *topology.Torus, bits []*bitvec.Vec, merge runtime.MergeFunc) {
	t.Helper()
	desc := &registry.Descriptor{
		Name:     "onebit-custom-merge",
		Topology: registry.Ring,
		Caps:     registry.Caps{Torus: true},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			return func(c *netsim.Cluster, ep transport.Endpoint, _ tensor.Vec) registry.Update {
				runtime.OneBitAllReduceRank(c, ep, o.Torus, bits[rank], merge)
				return registry.Update{}
			}, nil
		},
	}
	cl, err := eng.Open(desc, &registry.Opts{Dim: bits[0].Len(), Torus: tor})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(c, make([]tensor.Vec, len(bits)))
}

// extractBits returns seg's bits of v as a vector of their own.
func extractBits(v *bitvec.Vec, seg tensor.Segment) *bitvec.Vec {
	out := bitvec.New(seg.Len())
	v.ExtractInto(out, seg.Lo)
	return out
}

func modPos(i, m int) int { return ((i % m) + m) % m }

// seqOneBit is a lockstep reference of the one-bit all-reduce over tor
// (nil: the flat ring over every rank), without the netsim substrate and
// written apart from both engines: each row's reduce over the row
// partition leaves every rank one row segment, then each column reduces
// only the row segment its ranks own, with the row width as the base
// weight, and the final segments make one consensus that every rank's
// bits take. Each merge draws from the receiving rank's stream.
func seqOneBit(bits []*bitvec.Vec, d int, tor *topology.Torus, streams []*rng.PCG) {
	n := len(bits)
	if tor == nil {
		tor = topology.NewTorus(1, n)
	}
	rows, cols := tor.Rows(), tor.Cols()
	rowSegs := tensor.Partition(d, cols)
	// own[w] is rank w's row segment after its row's reduce.
	own := make([]*bitvec.Vec, n)
	for r := 0; r < rows; r++ {
		g := make([]int, cols)
		srcs := make([]*bitvec.Vec, cols)
		for p := range g {
			g[p] = tor.Rank(r, p)
			srcs[p] = bits[g[p]]
		}
		for k, agg := range ringReduce(srcs, g, rowSegs, 1, streams) {
			own[g[modPos(k-1, cols)]] = agg
		}
	}
	consensus := bitvec.New(d)
	for p := 0; p < cols; p++ {
		seg := rowSegs[modPos(p+1, cols)]
		g := make([]int, rows)
		srcs := make([]*bitvec.Vec, rows)
		for r := range g {
			g[r] = tor.Rank(r, p)
			srcs[r] = own[g[r]]
		}
		sub := tensor.Partition(seg.Len(), rows)
		for j, agg := range ringReduce(srcs, g, sub, cols, streams) {
			consensus.Insert(seg.Lo+sub[j].Lo, agg)
		}
	}
	for _, b := range bits {
		b.Insert(0, consensus)
	}
}

// ringReduce is the one-bit reduce over one ring g: srcs[p] is position
// p's vector and segs partitions it. At hop s position p passes its
// running aggregate of segment p−s on, and position p+1 merges its own
// bits of that segment into it, covering (s+1)·base workers against
// base. It returns every segment's final aggregate, by segment.
func ringReduce(srcs []*bitvec.Vec, g []int, segs []tensor.Segment, base int, streams []*rng.PCG) []*bitvec.Vec {
	m := len(g)
	held := make([]*bitvec.Vec, m)
	for p := range held {
		held[p] = extractBits(srcs[p], segs[p])
	}
	for s := 0; s < m-1; s++ {
		next := make([]*bitvec.Vec, m)
		for p := range next {
			in := held[modPos(p-1, m)].Clone()
			local := extractBits(srcs[p], segs[modPos(p-s-1, m)])
			core.MergeSigns(in, local, (s+1)*base, base, streams[g[p]])
			next[p] = in
		}
		held = next
	}
	final := make([]*bitvec.Vec, m)
	for p, agg := range held {
		final[modPos(p+1, m)] = agg
	}
	return final
}

func requireSameBits(t *testing.T, want, got []*bitvec.Vec) {
	t.Helper()
	for w := range want {
		if !want[w].Equal(got[w]) {
			t.Fatalf("rank %d bits differ from sequential reference", w)
		}
	}
}

func randBits(seed uint64, n, d int) []*bitvec.Vec {
	vecs := equivtest.RandVecs(seed, n, d)
	bits := make([]*bitvec.Vec, n)
	for w := range bits {
		bits[w] = bitvec.FromSigns(vecs[w])
	}
	return bits
}

// TestOneBitRingEquivalence checks the concurrent one-bit ring against
// the lockstep sequential reference (per-rank bit equality with shared
// seeds), ring-wide consensus, wire-byte accounting, and determinism
// across runs despite goroutine interleaving.
func TestOneBitRingEquivalence(t *testing.T) {
	const n, d = 4, 101
	run := func() ([]*bitvec.Vec, *netsim.Cluster) {
		bits := randBits(7, n, d)
		c := netsim.NewCluster(n, netsim.DefaultCostModel())
		eng := runtime.New(n)
		defer eng.Close()
		oneBitAllReduce(t, eng, c, nil, bits, mergeWithStreams(99, n))
		return bits, c
	}
	bits1, c1 := run()
	want := randBits(7, n, d)
	seqOneBit(want, d, nil, rng.Streams(99, n))
	requireSameBits(t, want, bits1)
	for w := 1; w < n; w++ {
		if !bits1[0].Equal(bits1[w]) {
			t.Fatalf("rank %d disagrees with rank 0", w)
		}
	}
	// Sequential wire accounting: 2(M−1) steps of one segment per rank.
	segs := tensor.Partition(d, n)
	wantBytes := int64(0)
	for s := 0; s < n-1; s++ {
		for p := 0; p < n; p++ {
			wantBytes += int64((segs[modPos(p-s, n)].Len() + 7) / 8)   // reduce
			wantBytes += int64((segs[modPos(p+1-s, n)].Len() + 7) / 8) // gather
		}
	}
	if c1.TotalBytes() != wantBytes {
		t.Fatalf("wire bytes %d, want %d", c1.TotalBytes(), wantBytes)
	}
	bits2, _ := run()
	requireSameBits(t, bits1, bits2)
}

// TestOneBitTorusEquivalence checks the torus schedule against the
// sequential reference on every rank, cluster-wide consensus, the exact
// wire bytes — each row reduces and gathers the row partition, each
// column only its owned row segment's sub-partition — and determinism,
// over square, non-square and degenerate shapes.
func TestOneBitTorusEquivalence(t *testing.T) {
	for _, sh := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {1, 4}, {4, 1}} {
		rows, cols := sh[0], sh[1]
		n := rows * cols
		t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
			const d = 97
			tor := topology.NewTorus(rows, cols)
			run := func() ([]*bitvec.Vec, *netsim.Cluster) {
				bits := randBits(11, n, d)
				c := netsim.NewCluster(n, netsim.DefaultCostModel())
				eng := runtime.New(n)
				defer eng.Close()
				oneBitAllReduce(t, eng, c, tor, bits, mergeWithStreams(5, n))
				return bits, c
			}
			got, c := run()
			want := randBits(11, n, d)
			seqOneBit(want, d, tor, rng.Streams(5, n))
			requireSameBits(t, want, got)
			for w := 1; w < n; w++ {
				if !got[0].Equal(got[w]) {
					t.Fatalf("rank %d disagrees with rank 0", w)
				}
			}
			wantBytes := int64(0)
			for _, seg := range tensor.Partition(d, cols) {
				wantBytes += int64(rows * 2 * (cols - 1) * ((seg.Len() + 7) / 8))
				for _, sub := range tensor.Partition(seg.Len(), rows) {
					wantBytes += int64(2 * (rows - 1) * ((sub.Len() + 7) / 8))
				}
			}
			if c.TotalBytes() != wantBytes {
				t.Fatalf("wire bytes %d, want %d", c.TotalBytes(), wantBytes)
			}
			again, _ := run()
			requireSameBits(t, got, again)
		})
	}
}

// TestParallelFor checks rank-local bodies run once per rank.
func TestParallelFor(t *testing.T) {
	const n = 6
	eng := runtime.New(n)
	defer eng.Close()
	got := make([]int, n)
	eng.ParallelFor(func(rank int) { got[rank]++ })
	eng.ParallelFor(func(rank int) { got[rank] += 10 })
	for w, v := range got {
		if v != 11 {
			t.Fatalf("rank %d ran %d times", w, v)
		}
	}
}

// TestWorkerPanicPropagates checks a panic on a worker goroutine is
// re-raised on the coordinator instead of hanging the join.
func TestWorkerPanicPropagates(t *testing.T) {
	eng := runtime.New(3)
	defer eng.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload %q", s)
		}
	}()
	eng.ParallelFor(func(rank int) {
		if rank == 1 {
			panic("boom")
		}
	})
}

// TestWorkerPanicMidCollectiveUnmasked checks that when a rank panics
// mid-collective — poisoning the transport and making peers blocked in
// Recv panic with "transport: closed" — the coordinator re-raises the
// root-cause panic, not a secondary symptom.
func TestWorkerPanicMidCollectiveUnmasked(t *testing.T) {
	const n, d = 3, 64
	eng := runtime.New(n)
	defer eng.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		s := fmt.Sprint(r)
		if !strings.Contains(s, "merge exploded") {
			t.Fatalf("root cause masked, got %q", s)
		}
	}()
	bits := randBits(3, n, d)
	c := netsim.NewCluster(n, netsim.DefaultCostModel())
	oneBitAllReduce(t, eng, c, nil, bits, func(rank int, agg, local *bitvec.Vec, aw, bw int) {
		if rank == 2 {
			panic("merge exploded")
		}
		agg.Or(local)
	})
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

// TestRoundCarriesNoHiddenPayload records every frame of two rounds
// (K = 2: a full-precision round, then a one-bit one) of every registered
// collective, Elias-coded too where the caps allow, on the flat ring and
// on every torus shape a torus-capable collective takes: the only frames
// the cost model does not charge (Wire = 0) must be control frames no
// larger than a ClockBarrier's, and the charged frames must add up to
// the cluster's wire bytes. The PS family's hub charges its own push and
// pull without sending a frame, so there the frames add up to (M−1)/M of
// them. A rank that moved data outside the schedule — a hop split into
// an uncharged trailing frame, or bits aligned to another rank's — would
// post uncharged payload frames that no wire or clock figure shows. The
// rounds run with a tracer attached, and every frame must show in its
// rank's trace too: the payload bytes of a rank's hop and send events
// add up to the bytes the rank posted.
func TestRoundCarriesNoHiddenPayload(t *testing.T) {
	const d, rounds = 97, 2
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

	tori := []*topology.Torus{topology.NewTorus(2, 2), topology.NewTorus(2, 3),
		topology.NewTorus(3, 2), topology.NewTorus(1, 4), topology.NewTorus(4, 1)}
	for _, desc := range registry.All() {
		layouts := []*topology.Torus{nil}
		switch {
		case desc.Topology == registry.Torus:
			layouts = tori
		case desc.Caps.Torus:
			layouts = append(layouts, tori...)
		}
		eliases := []bool{false}
		if desc.Caps.Elias {
			eliases = append(eliases, true)
		}
		for _, elias := range eliases {
			for _, tor := range layouts {
				n, name := 4, desc.Name+"/ring"
				if tor != nil {
					n, name = tor.Size(), fmt.Sprintf("%s/%dx%d", desc.Name, tor.Rows(), tor.Cols())
				}
				if elias {
					name += "/elias"
				}
				t.Run(name, func(t *testing.T) {
					reg := obs.NewRegistry()
					tracer := obs.NewTracer(n, 1<<12)
					reg.AttachTracer(tracer)
					defer obs.SetActive(reg)()
					fabric := newRecordingFabric(n)
					eng := runtime.NewWithOwnedTransport(fabric)
					defer eng.Close()
					cl, err := eng.Open(desc, &registry.Opts{Dim: d, K: 2, GlobalLR: 0.1, Torus: tor, Elias: elias, Seed: 3})
					if err != nil {
						t.Fatal(err)
					}
					c := netsim.NewCluster(n, netsim.DefaultCostModel())
					for r := 0; r < rounds; r++ {
						cl.Run(c, equivtest.RoundVecs(9, r, n, d))
					}
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
					want := c.TotalBytes()
					if desc.Caps.PSFamily {
						want = want * int64(n-1) / int64(n)
					}
					if charged != want {
						t.Fatalf("frames charge %d wire bytes, want %d of the cluster's %d", charged, want, c.TotalBytes())
					}
					for rank, ep := range fabric.eps {
						posted, traced := 0, 0
						for _, f := range ep.frames {
							posted += f.payload
						}
						for _, e := range tracer.Events(rank) {
							if e.Kind == obs.KindHop || e.Kind == obs.KindSend {
								traced += e.Bytes
							}
						}
						if dropped := tracer.Dropped(rank); dropped > 0 {
							t.Fatalf("rank %d: %d trace events dropped", rank, dropped)
						}
						if traced != posted {
							t.Errorf("rank %d posted %d payload bytes, its hop and send events show %d", rank, posted, traced)
						}
					}
				})
			}
		}
	}
}
