package core

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// parMarsit drives one RankSync per worker on a concurrent engine over
// the fabric kind, through a test-local copy of the "marsit" descriptor
// whose per-rank leg keeps each rank's RankSync reachable: the engine's
// form of a Marsit, for comparing state with the lock-step one.
type parMarsit struct {
	ranks []*RankSync
	cl    *runtime.Collective
}

func newParMarsit(t *testing.T, cfg Config, kind Transport) *parMarsit {
	t.Helper()
	eng, err := NewParallelEngine(cfg.Workers, kind)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	p := &parMarsit{ranks: make([]*RankSync, cfg.Workers)}
	desc := MarsitDescriptor(cfg.DisableCompensation)
	desc.NewRank = func(_ *registry.Opts, rank int) (registry.RankRunner, error) {
		p.ranks[rank] = newRankSync(cfg, rank)
		return p.ranks[rank].Sync, nil
	}
	o := &registry.Opts{
		Workers: cfg.Workers, Dim: cfg.Dim, K: cfg.K,
		GlobalLR: cfg.GlobalLR, Torus: cfg.Torus, Seed: cfg.Seed,
	}
	if p.cl, err = eng.Open(&desc, o); err != nil {
		t.Fatal(err)
	}
	return p
}

// syncer is what the tests read of a Marsit, lock-step or on an engine.
type syncer interface {
	Sync(c *netsim.Cluster, grads []tensor.Vec) tensor.Vec
	SyncUpdate(c *netsim.Cluster, grads []tensor.Vec) registry.Update
	Compensation(w int) tensor.Vec
	MeanCompensation() tensor.Vec
	FullPrecisionNext() bool
}

// newSyncer is MustNew(cfg), or with parallel set its parMarsit on the
// loopback fabric.
func newSyncer(t *testing.T, cfg Config, parallel bool) syncer {
	if parallel {
		return newParMarsit(t, cfg, TransportLoopback)
	}
	return MustNew(cfg)
}

func (p *parMarsit) Sync(c *netsim.Cluster, grads []tensor.Vec) tensor.Vec {
	return p.cl.Run(c, grads)[0]
}

func (p *parMarsit) SyncUpdate(c *netsim.Cluster, grads []tensor.Vec) registry.Update {
	return p.cl.Updates(c, grads)[0]
}

func (p *parMarsit) Compensation(w int) tensor.Vec { return p.ranks[w].Compensation() }

// MeanCompensation is Marsit.MeanCompensation's arithmetic over the
// ranks: the sum in worker order, scaled by 1/M.
func (p *parMarsit) MeanCompensation() tensor.Vec {
	out := tensor.New(len(p.ranks[0].comp))
	for w := range p.ranks {
		tensor.Add(out, p.Compensation(w))
	}
	tensor.Scale(out, 1/float64(len(p.ranks)))
	return out
}

func (p *parMarsit) FullPrecisionNext() bool { return p.ranks[0].FullPrecisionNext() }

// runEngines drives a sequential Marsit and its per-rank form on a
// concurrent engine over the fabric kind with identical configs and
// gradients for several rounds and asserts bit-identical updates,
// compensation state and cluster accounting every round (the accounting
// bar is the shared equivtest one: bytes exact, clocks and phase
// breakdowns to 1e-12).
func runEngines(t *testing.T, cfg Config, kind Transport, rounds int) {
	t.Helper()
	seqM := MustNew(cfg)
	parM := newParMarsit(t, cfg, kind)
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
				}, TransportLoopback, 7)
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
			}, TransportTCP, 7)
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
					DisableCompensation: noComp,
				}, tr, 7)
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
			}, TransportLoopback, 7)
		})
	}
}

// TestParallelUnknownTransportRejected checks fabric-kind validation.
func TestParallelUnknownTransportRejected(t *testing.T) {
	if _, err := NewParallelEngine(2, "rdma"); err == nil {
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
			}, TransportLoopback, 9)
		})
	}
}

// TestParallelCloseSequentialNoop checks OpenCollective's release is
// safe to call twice on both engines: a no-op sequentially, and on the
// concurrent engine a Close that a second Close leaves alone.
func TestParallelCloseSequentialNoop(t *testing.T) {
	desc, err := registry.Get("marsit")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		o := &registry.Opts{Workers: 2, Dim: 8, GlobalLR: 0.1, Seed: 1}
		_, release, err := OpenCollective(desc, o, parallel, TransportLoopback)
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if err := release(); err != nil {
			t.Fatalf("parallel=%v release: %v", parallel, err)
		}
		if err := release(); err != nil {
			t.Fatalf("parallel=%v double release: %v", parallel, err)
		}
	}
}

// TestOpenCollectiveKeepsBits holds OpenCollective to the form the
// rounds produce, on both engines, the ring and a 2×2 torus, with and
// without full-precision rounds: every rank of a one-bit round gets bits
// and no vector, every rank of a full-precision round a vector and no
// bits, and registry.Dense of the result is bit for bit what
// Descriptor.Seq and Collective.Run return for the same inputs, with the
// same accounting.
func TestOpenCollectiveKeepsBits(t *testing.T) {
	const workers, dim, rounds, seed = 4, 203, 5, 41
	desc, err := registry.Get("marsit")
	if err != nil {
		t.Fatal(err)
	}
	for _, tor := range []*topology.Torus{nil, topology.NewTorus(2, 2)} {
		for _, k := range []int{0, 2} {
			for _, parallel := range []bool{false, true} {
				t.Run(fmt.Sprintf("torus=%v/K=%d/par=%v", tor != nil, k, parallel), func(t *testing.T) {
					opts := func() *registry.Opts {
						return &registry.Opts{Workers: workers, Dim: dim, K: k, GlobalLR: 0.05, Torus: tor, Seed: seed}
					}
					run, release, err := OpenCollective(desc, opts(), parallel, TransportLoopback)
					if err != nil {
						t.Fatal(err)
					}
					defer release()
					seqRun, err := desc.Seq(opts())
					if err != nil {
						t.Fatal(err)
					}
					eng := runtime.New(workers)
					defer eng.Close()
					cl, err := eng.Open(desc, opts())
					if err != nil {
						t.Fatal(err)
					}
					c, cSeq, cRun := cluster(workers), cluster(workers), cluster(workers)
					for round := 0; round < rounds; round++ {
						full := FullPrecisionRound(k, round)
						ups := run(c, equivtest.RoundVecs(seed, round, workers, dim))
						for w, u := range ups {
							if full && (u.Vec == nil || u.Signs != nil) {
								t.Fatalf("round %d rank %d: full-precision update is not a vector", round, w)
							}
							if !full && (u.Signs == nil || u.Vec != nil) {
								t.Fatalf("round %d rank %d: one-bit update is not bits", round, w)
							}
						}
						got := registry.Dense(ups)
						equivtest.RequireSameVecs(t, seqRun(cSeq, equivtest.RoundVecs(seed, round, workers, dim)), got)
						equivtest.RequireSameVecs(t, cl.Run(cRun, equivtest.RoundVecs(seed, round, workers, dim)), got)
					}
					equivtest.RequireSameClusters(t, cSeq, c)
					equivtest.RequireSameClusters(t, cRun, c)
				})
			}
		}
	}
}

// TestUpdatesAllocateNoVector measures one steady one-bit round of
// marsit on the concurrent engine both ways: through Collective.Updates,
// which hands back the ranks' consensus bits, it allocates less than one
// 8·D-byte vector; through Collective.Run, which unpacks them, at least
// that one vector.
func TestUpdatesAllocateNoVector(t *testing.T) {
	const workers, dim = 4, 1 << 16
	desc, err := registry.Get("marsit")
	if err != nil {
		t.Fatal(err)
	}
	eng := runtime.New(workers)
	defer eng.Close()
	cl, err := eng.Open(desc, &registry.Opts{Workers: workers, Dim: dim, GlobalLR: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster(workers)
	grads := equivtest.RandVecs(5, workers, dim)
	for i := 0; i < 3; i++ {
		cl.Updates(c, grads) // settle the payload pool
	}
	bytes := func(round func()) uint64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		round()
		goruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	vec := uint64(8 * dim)
	updates := bytes(func() { cl.Updates(c, grads) })
	dense := bytes(func() { cl.Run(c, grads) })
	t.Logf("M=%d D=%d one-bit round: Updates %d bytes, Run %d bytes (8·D = %d)", workers, dim, updates, dense, vec)
	if updates >= vec {
		t.Fatalf("a one-bit round through Updates allocates %d bytes, not under one 8·D vector (%d)", updates, vec)
	}
	if dense < vec {
		t.Fatalf("a one-bit round through Run allocates %d bytes, under the one 8·D vector it unpacks (%d)", dense, vec)
	}
}
