package core

import (
	"fmt"
	"testing"

	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// runEngines drives a sequential and a parallel Marsit with identical
// configs and gradients for several rounds and asserts bit-identical
// updates, compensation state and cluster accounting every round (the
// accounting bar is the shared equivtest one: bytes exact, clocks and
// phase breakdowns to 1e-12).
func runEngines(t *testing.T, cfg Config, rounds int) {
	t.Helper()
	seqCfg, parCfg := cfg, cfg
	seqCfg.Parallel = false
	parCfg.Parallel = true
	seqM := MustNew(seqCfg)
	parM := MustNew(parCfg)
	defer parM.Close()
	seqC := netsim.NewCluster(cfg.Workers, netsim.DefaultCostModel())
	parC := netsim.NewCluster(cfg.Workers, netsim.DefaultCostModel())

	r := rng.New(cfg.Seed ^ 0xfeed)
	for round := 0; round < rounds; round++ {
		grads := make([]tensor.Vec, cfg.Workers)
		for w := range grads {
			grads[w] = r.NormVec(make(tensor.Vec, cfg.Dim), 0, 1)
		}
		seqG := seqM.Sync(seqC, grads)
		parG := parM.Sync(parC, grads)
		equivtest.RequireSameVecs(t, []tensor.Vec{seqG}, []tensor.Vec{parG})
		for w := 0; w < cfg.Workers; w++ {
			equivtest.RequireSameVecs(t,
				[]tensor.Vec{seqM.Compensation(w)}, []tensor.Vec{parM.Compensation(w)})
		}
		equivtest.RequireSameClusters(t, seqC, parC)
	}
}

// TestParallelSyncEquivalenceRing covers the RAR path with a mix of
// one-bit and periodic full-precision rounds (K=3) and the pure one-bit
// configuration (K=0).
func TestParallelSyncEquivalenceRing(t *testing.T) {
	for _, k := range []int{0, 3} {
		for _, workers := range []int{1, 2, 4, 5} {
			t.Run(fmt.Sprintf("M=%d_K=%d", workers, k), func(t *testing.T) {
				runEngines(t, Config{
					Workers: workers, Dim: 203, K: k, GlobalLR: 0.05, Seed: uint64(31 + workers),
				}, 7)
			})
		}
	}
}

// TestParallelSyncEquivalenceTCP re-runs the ring equivalence with the
// parallel engine on the TCP fabric (real sockets, loopback interface):
// a 4-rank Marsit all-reduce must stay bit-identical to the sequential
// engine in results, compensation, wire bytes and virtual clocks.
func TestParallelSyncEquivalenceTCP(t *testing.T) {
	for _, k := range []int{0, 3} {
		t.Run(fmt.Sprintf("M=4_K=%d", k), func(t *testing.T) {
			runEngines(t, Config{
				Workers: 4, Dim: 203, K: k, GlobalLR: 0.05, Seed: uint64(131 + k),
				Transport: TransportTCP,
			}, 7)
		})
	}
}

// TestParallelSyncEquivalenceSharedMemory covers the two fabrics with
// shared-memory links — all-shm, and the hybrid shm/TCP split — with and
// without the compensation ablation.
func TestParallelSyncEquivalenceSharedMemory(t *testing.T) {
	for _, tr := range []Transport{TransportSHM, TransportHybrid} {
		for _, noComp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_nocomp=%v", tr, noComp), func(t *testing.T) {
				runEngines(t, Config{
					Workers: 4, Dim: 203, K: 3, GlobalLR: 0.05, Seed: 231,
					Transport: tr, DisableCompensation: noComp,
				}, 7)
			})
		}
	}
}

// TestParallelSyncEquivalenceNoCompensation drives the compensation
// ablation on both engines over the ring and a full torus: the parallel
// engine reaches it only through the shared Config of its RankSyncs.
func TestParallelSyncEquivalenceNoCompensation(t *testing.T) {
	for _, tor := range []*topology.Torus{nil, topology.NewTorus(2, 2)} {
		t.Run(fmt.Sprintf("torus=%v", tor != nil), func(t *testing.T) {
			runEngines(t, Config{
				Workers: 4, Dim: 157, K: 3, GlobalLR: 0.02, Torus: tor, Seed: 91,
				DisableCompensation: true,
			}, 7)
		})
	}
}

// TestParallelUnknownTransportRejected checks fabric-kind validation.
func TestParallelUnknownTransportRejected(t *testing.T) {
	_, err := New(Config{Workers: 2, Dim: 8, GlobalLR: 0.1, Parallel: true, Transport: "rdma"})
	if err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestParallelSyncEquivalenceTorus covers the TAR path, including
// rectangular and degenerate tori.
func TestParallelSyncEquivalenceTorus(t *testing.T) {
	for _, sh := range [][2]int{{2, 2}, {2, 3}, {4, 1}, {1, 4}} {
		rows, cols := sh[0], sh[1]
		t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
			runEngines(t, Config{
				Workers: rows * cols, Dim: 157, K: 4, GlobalLR: 0.02,
				Torus: topology.NewTorus(rows, cols), Seed: 77,
			}, 9)
		})
	}
}

// TestParallelCloseSequentialNoop checks Close is safe in both modes.
func TestParallelCloseSequentialNoop(t *testing.T) {
	seq := MustNew(Config{Workers: 2, Dim: 8, GlobalLR: 0.1, Seed: 1})
	if err := seq.Close(); err != nil {
		t.Fatalf("sequential Close: %v", err)
	}
	par := MustNew(Config{Workers: 2, Dim: 8, GlobalLR: 0.1, Seed: 1, Parallel: true})
	if err := par.Close(); err != nil {
		t.Fatalf("parallel Close: %v", err)
	}
	if err := par.Close(); err != nil {
		t.Fatalf("parallel double Close: %v", err)
	}
}
