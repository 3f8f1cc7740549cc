package runtime_test

import (
	"fmt"
	"strings"
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/collective/registry"
	"marsit/internal/core"
	"marsit/internal/netsim"
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

// oneBitAllReduce runs the per-rank one-bit entry points with a custom
// merge on every worker of eng, through an ad-hoc descriptor opened like
// any registered one (core.RankSync takes the same route with
// core.MergeSigns): the ring, or the row-then-column torus schedule when
// tor is non-nil. bits[rank] is reduced in place.
func oneBitAllReduce(t testing.TB, eng *runtime.Engine, c *netsim.Cluster, tor *topology.Torus, bits []*bitvec.Vec, merge runtime.MergeFunc) {
	t.Helper()
	desc := &registry.Descriptor{
		Name:     "onebit-custom-merge",
		Topology: registry.Ring,
		Caps:     registry.Caps{Torus: true},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			return func(c *netsim.Cluster, ep transport.Endpoint, _ tensor.Vec) registry.Update {
				if o.Torus != nil {
					runtime.OneBitTorusAllReduceRank(c, ep, o.Torus, bits[rank], merge)
				} else {
					runtime.OneBitRingAllReduceRank(c, ep, bits[rank], merge)
				}
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

// seqOneBitGroups is a lockstep reference of the one-bit ring schedule
// (the data flow of core's sequential path, without the netsim
// substrate): reduce-scatter with per-hop merges drawing from the
// owner's stream, then segment write-back. It mutates bits in place.
func seqOneBitGroups(bits []*bitvec.Vec, d int, groups [][]int, baseWeight int, streams []*rng.PCG) {
	for _, g := range groups {
		m := len(g)
		if m < 2 {
			continue
		}
		segs := tensor.Partition(d, m)
		agg := make([]*bitvec.Vec, m)
		for s := 0; s < m-1; s++ {
			outgoing := make([]*bitvec.Vec, m)
			for p := 0; p < m; p++ {
				if s == 0 {
					seg := segs[modPos(p, m)]
					outgoing[p] = extractBits(bits[g[p]], seg)
				} else {
					outgoing[p] = agg[p]
				}
			}
			for p := 0; p < m; p++ {
				in := outgoing[modPos(p-1, m)].Clone()
				seg := segs[modPos(p-s-1, m)]
				local := extractBits(bits[g[p]], seg)
				core.MergeSigns(in, local, (s+1)*baseWeight, baseWeight, streams[g[p]])
				agg[p] = in
			}
		}
		final := make([]*bitvec.Vec, m)
		for p := 0; p < m; p++ {
			final[modPos(p+1, m)] = agg[p]
		}
		for p := 0; p < m; p++ {
			for j, seg := range segs {
				bits[g[p]].Insert(seg.Lo, final[j])
			}
		}
	}
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
	seqOneBitGroups(want, d, [][]int{topology.AllRanks(n)}, 1, rng.Streams(99, n))
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

// torusGroups enumerates row groups and column groups of a torus.
func torusGroups(tor *topology.Torus) (rows, cols [][]int) {
	rows = make([][]int, tor.Rows())
	for r := range rows {
		for c := 0; c < tor.Cols(); c++ {
			rows[r] = append(rows[r], tor.Rank(r, c))
		}
	}
	cols = make([][]int, tor.Cols())
	for c := range cols {
		for r := 0; r < tor.Rows(); r++ {
			cols[c] = append(cols[c], tor.Rank(r, c))
		}
	}
	return rows, cols
}

// TestOneBitTorusEquivalence checks the two-phase torus schedule against
// the sequential reference per rank. Ranks within a column share one
// merge chain and must agree; ranks in different columns draw different
// transients, so cluster-wide equality is not expected — exactly the
// sequential semantics.
func TestOneBitTorusEquivalence(t *testing.T) {
	for _, sh := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {1, 4}, {4, 1}} {
		rows, cols := sh[0], sh[1]
		n := rows * cols
		t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
			const d = 97
			tor := topology.NewTorus(rows, cols)
			run := func() []*bitvec.Vec {
				bits := randBits(11, n, d)
				c := netsim.NewCluster(n, netsim.DefaultCostModel())
				eng := runtime.New(n)
				defer eng.Close()
				oneBitAllReduce(t, eng, c, tor, bits, mergeWithStreams(5, n))
				return bits
			}
			got := run()
			want := randBits(11, n, d)
			streams := rng.Streams(5, n)
			rowGroups, colGroups := torusGroups(tor)
			seqOneBitGroups(want, d, rowGroups, 1, streams)
			seqOneBitGroups(want, d, colGroups, tor.Cols(), streams)
			requireSameBits(t, want, got)
			for c := 0; c < cols; c++ {
				for r := 1; r < rows; r++ {
					if !got[tor.Rank(0, c)].Equal(got[tor.Rank(r, c)]) {
						t.Fatalf("column %d: rank (%d,%d) disagrees", c, r, c)
					}
				}
			}
			requireSameBits(t, got, run())
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
