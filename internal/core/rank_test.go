package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// TestRankSyncMatchesSequential runs a fleet of RankSyncs — one
// goroutine per rank over a shared loopback fabric, the distributed
// shape — against the sequential Marsit for several rounds and demands
// bit-identical updates and compensation plus matching per-rank
// accounting. This is the contract that lets cmd/marsit-node's check
// mode replay a fabric on the sequential engine.
func TestRankSyncMatchesSequential(t *testing.T) {
	for _, k := range []int{0, 3} {
		for _, workers := range []int{2, 4, 5} {
			t.Run(fmt.Sprintf("M=%d_K=%d", workers, k), func(t *testing.T) {
				cfg := Config{Workers: workers, Dim: 171, K: k, GlobalLR: 0.04, Seed: uint64(7 + workers)}
				const rounds = 6

				seqM := MustNew(cfg)
				seqC := netsim.NewCluster(workers, netsim.DefaultCostModel())

				rs := make([]*RankSync, workers)
				parC := make([]*netsim.Cluster, workers)
				for w := range rs {
					var err error
					rs[w], err = NewRankSync(cfg, w)
					if err != nil {
						t.Fatalf("rank %d: %v", w, err)
					}
					parC[w] = netsim.NewCluster(workers, netsim.DefaultCostModel())
				}
				fabric := transport.NewLoopback(workers)
				defer fabric.Close()

				r := rng.New(cfg.Seed ^ 0xfeed)
				prevG := make([]tensor.Vec, workers)
				for round := 0; round < rounds; round++ {
					grads := make([]tensor.Vec, workers)
					passed := make([]tensor.Vec, workers)
					for w := range grads {
						grads[w] = r.NormVec(make(tensor.Vec, cfg.Dim), 0, 1)
						passed[w] = tensor.Clone(grads[w])
					}
					seqG := seqM.Sync(seqC, grads)

					parG := make([]tensor.Vec, workers)
					var wg sync.WaitGroup
					wg.Add(workers)
					for w := 0; w < workers; w++ {
						go func(rank int) {
							defer wg.Done()
							parG[rank] = rs[rank].Sync(parC[rank], fabric.Endpoint(rank), grads[rank])
						}(w)
					}
					wg.Wait()

					for w := 0; w < workers; w++ {
						// The caller's contract: grad comes back untouched, and
						// the update is a vector of its own — not last round's,
						// not the compensation state u lives in.
						for i := range passed[w] {
							if math.Float64bits(grads[w][i]) != math.Float64bits(passed[w][i]) {
								t.Fatalf("round %d rank %d: Sync modified grad[%d]: %v, passed %v", round, w, i, grads[w][i], passed[w][i])
							}
						}
						if prevG[w] != nil && &parG[w][0] == &prevG[w][0] {
							t.Fatalf("round %d rank %d: update aliases the previous round's", round, w)
						}
						if &parG[w][0] == &rs[w].comp[0] {
							t.Fatalf("round %d rank %d: update aliases the compensation vector", round, w)
						}
						prevG[w] = parG[w]
						for i := range seqG {
							if seqG[i] != parG[w][i] {
								t.Fatalf("round %d rank %d elem %d: seq %v, rank-sync %v", round, w, i, seqG[i], parG[w][i])
							}
						}
						sc, pc := seqM.Compensation(w), rs[w].Compensation()
						for i := range sc {
							if sc[i] != pc[i] {
								t.Fatalf("round %d rank %d comp %d: seq %v, rank-sync %v", round, w, i, sc[i], pc[i])
							}
						}
						if seqC.BytesSent(w) != parC[w].BytesSent(w) {
							t.Fatalf("round %d rank %d bytes: seq %d, rank-sync %d",
								round, w, seqC.BytesSent(w), parC[w].BytesSent(w))
						}
						if d := math.Abs(seqC.Clock(w) - parC[w].Clock(w)); d > 1e-12 {
							t.Fatalf("round %d rank %d clock: seq %v, rank-sync %v",
								round, w, seqC.Clock(w), parC[w].Clock(w))
						}
					}
				}
			})
		}
	}
}

// TestRankSyncValidation covers the rejection paths.
func TestRankSyncValidation(t *testing.T) {
	good := Config{Workers: 3, Dim: 8, GlobalLR: 0.1, Seed: 1}
	if _, err := NewRankSync(good, 1); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []struct {
		cfg  Config
		rank int
	}{
		{Config{Workers: 0, Dim: 8, GlobalLR: 0.1}, 0},
		{Config{Workers: 3, Dim: 0, GlobalLR: 0.1}, 0},
		{Config{Workers: 3, Dim: 8, GlobalLR: 0}, 0},
		{good, -1},
		{good, 3},
	}
	for i, tc := range bad {
		if _, err := NewRankSync(tc.cfg, tc.rank); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}
