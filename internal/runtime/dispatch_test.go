package runtime_test

import (
	"fmt"
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// TestRunSharesOneVectorPerConsensus pins Collective.Run's rule for
// turning the ranks' results into vectors, on Marsit over a ring and a
// 2×2 torus at K = 0 (every round one-bit) and K = 2 (rounds 0 and 2 at
// full precision). A one-bit round returns one vector whose backing array
// every rank shares, and that vector is fresh: not the previous round's,
// and not anything the collective writes later — its values survive the
// next round, so it is no rank's compensation vector or consensus bits.
// A full-precision round returns every rank's own vector. Every output is
// bit-equal to the sequential leg's, with the same wire bytes and clocks.
func TestRunSharesOneVectorPerConsensus(t *testing.T) {
	const workers, dim, rounds = 4, 333, 3
	desc, err := registry.Get("marsit")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		torus *topology.Torus
	}{{"ring", nil}, {"torus2x2", topology.NewTorus(2, 2)}} {
		for _, k := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s_K=%d", tc.name, k), func(t *testing.T) {
				opts := func() *registry.Opts {
					return &registry.Opts{Workers: workers, Dim: dim, K: k, GlobalLR: 0.03, Seed: 5, Torus: tc.torus}
				}
				seq, err := desc.Seq(opts())
				if err != nil {
					t.Fatal(err)
				}
				eng := runtime.New(workers)
				defer eng.Close()
				cl, err := eng.Open(desc, opts())
				if err != nil {
					t.Fatal(err)
				}
				seqC := netsim.NewCluster(workers, netsim.DefaultCostModel())
				parC := netsim.NewCluster(workers, netsim.DefaultCostModel())
				var prev, prevCopy []tensor.Vec
				for round := 0; round < rounds; round++ {
					grads := equivtest.RoundVecs(17, round, workers, dim)
					want := seq(seqC, equivtest.CloneVecs(grads))
					got := cl.Run(parC, equivtest.CloneVecs(grads))
					equivtest.RequireSameVecs(t, want, got)
					equivtest.RequireSameClusters(t, seqC, parC)
					oneBit := k == 0 || round%k != 0
					for r := range got {
						shared := &got[r][0] == &got[0][0]
						if oneBit && !shared {
							t.Fatalf("round %d: rank %d's one-bit update is a vector of its own, want rank 0's", round, r)
						}
						if !oneBit && r > 0 && shared {
							t.Fatalf("round %d: rank %d's full-precision update aliases rank 0's", round, r)
						}
						for _, p := range prev {
							if &got[r][0] == &p[0] {
								t.Fatalf("round %d: rank %d's update aliases a vector of the previous round", round, r)
							}
						}
					}
					// What the previous round returned is the caller's: this
					// round wrote none of it.
					equivtest.RequireSameVecs(t, prevCopy, prev)
					prev, prevCopy = got, equivtest.CloneVecs(got)
				}
			})
		}
	}
}

// TestRunSeparatesDifferentBits runs an unregistered collective whose
// ranks return one-bit results that differ: rank 2 holds a copy of rank
// 0's bits at rank 0's scale and shares rank 0's vector; rank 1 holds
// other bits, and rank 3 rank 0's bits at another scale, and each gets a
// vector of its own. When rank 0's result is dense, every one-bit rank is
// unpacked on its own. Every output is its rank's Dense, bit for bit.
func TestRunSeparatesDifferentBits(t *testing.T) {
	const workers, dim = 4, 130
	grads := equivtest.RandVecs(3, workers, dim)
	results := func(denseRank0 bool) []registry.Update {
		bits0 := bitvec.FromSigns(grads[0])
		ups := []registry.Update{
			{Signs: bits0, Scale: 0.5},
			{Signs: bitvec.FromSigns(grads[1]), Scale: 0.5},
			{Signs: bits0.Clone(), Scale: 0.5},
			{Signs: bits0.Clone(), Scale: 0.25},
		}
		if denseRank0 {
			ups[0] = registry.Update{Vec: tensor.Clone(grads[0])}
		}
		return ups
	}
	for _, denseRank0 := range []bool{false, true} {
		t.Run(fmt.Sprintf("dense_rank0=%v", denseRank0), func(t *testing.T) {
			ups := results(denseRank0)
			desc := &registry.Descriptor{
				Name:     "test-divergent-bits",
				Topology: registry.Ring,
				NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
					return func(c *netsim.Cluster, ep transport.Endpoint, _ tensor.Vec) registry.Update {
						runtime.ClockBarrier(c, ep)
						return ups[rank]
					}, nil
				},
			}
			eng := runtime.New(workers)
			defer eng.Close()
			cl, err := eng.Open(desc, &registry.Opts{Dim: dim})
			if err != nil {
				t.Fatal(err)
			}
			got := cl.Run(netsim.NewCluster(workers, netsim.DefaultCostModel()), equivtest.CloneVecs(grads))
			want := make([]tensor.Vec, workers)
			for r, u := range results(denseRank0) {
				want[r] = u.Dense()
			}
			equivtest.RequireSameVecs(t, want, got)
			for r := 1; r < workers; r++ {
				shared := &got[r][0] == &got[0][0]
				if wantShared := r == 2 && !denseRank0; shared != wantShared {
					t.Fatalf("rank %d shares rank 0's vector: %v, want %v", r, shared, wantShared)
				}
				for q := 1; q < r; q++ {
					if &got[r][0] == &got[q][0] {
						t.Fatalf("ranks %d and %d share a vector", q, r)
					}
				}
			}
		})
	}
}

// BenchmarkCollectiveRun times one Collective.Run of the one-bit Marsit
// ring (K = 0, every round one-bit) and of the full-precision ring on the
// loopback engine at M = 4, D = 2^16. B/op shows what a round allocates:
// for marsit one shared g_t (8·D bytes) and two segment vectors a rank;
// for rar nothing that grows with D, since each rank's output is its
// reduced input.
func BenchmarkCollectiveRun(b *testing.B) {
	const workers, dim = 4, 1 << 16
	for _, name := range []string{"marsit", "rar"} {
		b.Run(name, func(b *testing.B) {
			desc, err := registry.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			eng := runtime.New(workers)
			defer eng.Close()
			cl, err := eng.Open(desc, &registry.Opts{Dim: dim, Seed: 1, GlobalLR: 0.01})
			if err != nil {
				b.Fatal(err)
			}
			c := netsim.NewCluster(workers, netsim.DefaultCostModel())
			grads := equivtest.RandVecs(1, workers, dim)
			work := make([]tensor.Vec, workers)
			for i := 0; i < 3; i++ {
				copy(work, grads)
				cl.Run(c, work) // settle the buffer pools
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// rar reduces in place; the content is irrelevant to the
				// timing, so the inputs are reused as they come out.
				copy(work, grads)
				cl.Run(c, work)
			}
		})
	}
}
