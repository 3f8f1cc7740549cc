package runtime_test

import (
	"fmt"
	"testing"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/tensor"

	// Populate the collective registry: internal/runtime registers the
	// ported ring/torus/PS collectives via its own init, and
	// internal/core registers the one-bit Marsit schedule.
	_ "marsit/internal/core"
)

// TestCollectiveEquivalence is the cross-engine acceptance matrix,
// generated from the collective registry: every registered descriptor —
// full-precision RAR/TAR, the sign-sum ring and torus with bit-width
// expansion (± Elias coding), cascading SSDM, the PS hub family, and
// the one-bit Marsit schedule itself — runs its sequential and per-rank
// legs over {loopback, tcp} × {M=2, odd M, torus shapes} × unbalanced
// dims, and must reproduce the sequential engine's results, wire bytes
// and α–β clocks bit for bit. Registering a new collective adds it to
// this matrix with no other change.
func TestCollectiveEquivalence(t *testing.T) {
	equivtest.RunRegistry(t)
}

// TestCollectiveEquivalenceChunked proves chunk-pipelined hops are
// purely a wall-clock optimization: every chunk-capable descriptor
// (RAR, TAR, sign-sum ring/torus ± Elias, SSDM overflow, cascading)
// re-runs the full acceptance matrix with each hop payload split into
// 3 and then 8 pipelined frames, and must stay bit-identical to the
// sequential engine on results, wire bytes, clocks and phase splits.
// Together with the base matrix (Chunks ∈ {0, 1}) this pins the
// clock-invariance contract at Chunks ∈ {1, 3, 8}.
func TestCollectiveEquivalenceChunked(t *testing.T) {
	for _, chunks := range []int{3, 8} {
		t.Run(fmt.Sprintf("S=%d", chunks), func(t *testing.T) {
			equivtest.RunRegistryChunked(t, chunks)
		})
	}
}

// TestCollectiveEquivalenceJitter is the fault-injection leg of the
// acceptance matrix: every registered collective re-runs over both
// fabrics wrapped in the faultwrap delay middleware (seeded per-pair
// jitter plus a 3× straggler on the last rank) and must stay
// bit-identical to the sequential engine on results, wire bytes and
// α–β clocks. Injected delay may move wall time only.
func TestCollectiveEquivalenceJitter(t *testing.T) {
	equivtest.RunBackends(t, equivtest.RegistrySpecs(), equivtest.JitterBackends)
}

// TestCollectiveEquivalenceChunkedJitter re-runs the chunk-pipelined
// variants (S ∈ {3, 8}) under the same fault injection: the window-of-
// one chunk schedule must neither deadlock nor drift under arbitrary
// per-frame delays.
func TestCollectiveEquivalenceChunkedJitter(t *testing.T) {
	for _, chunks := range []int{3, 8} {
		t.Run(fmt.Sprintf("S=%d", chunks), func(t *testing.T) {
			equivtest.RunBackends(t, equivtest.RegistryChunkSpecs(chunks), equivtest.JitterBackends)
		})
	}
}

// TestHeterogeneousLinkEquivalence pins the per-link cost overrides
// across engines: with every directed ring link given its own α and β
// (identically on both clusters), the ring collectives must still agree
// bit for bit — the concurrent engine's cut-through arithmetic resolves
// the same Cluster.Link values as the sequential Exchange.
func TestHeterogeneousLinkEquivalence(t *testing.T) {
	const workers, dim = 4, 257
	for _, name := range []string{"rar", "signsum", "ssdm", "cascading"} {
		t.Run(name, func(t *testing.T) {
			d, err := registry.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(0xbeef) + uint64(dim)
			opts := func() *registry.Opts {
				return &registry.Opts{Workers: workers, Dim: dim, Seed: seed, K: 3, GlobalLR: 0.01}
			}
			applyLinks := func(c *netsim.Cluster) {
				for i := 0; i < workers; i++ {
					next := (i + 1) % workers
					base := c.Model
					c.SetLinkCost(i, next, netsim.LinkCost{
						Latency:    base.Latency * float64(1+i),
						BytePeriod: base.BytePeriod * float64(2+i),
					})
					c.SetLinkCost(next, i, netsim.LinkCost{
						Latency:    base.Latency * 0.5 * float64(1+i),
						BytePeriod: base.BytePeriod,
					})
				}
			}
			rounds := d.EquivRounds
			if rounds < 1 {
				rounds = 1
			}

			seqC := netsim.NewCluster(workers, netsim.DefaultCostModel())
			applyLinks(seqC)
			run, err := d.Seq(opts())
			if err != nil {
				t.Fatal(err)
			}
			var seqOut []tensor.Vec
			for r := 0; r < rounds; r++ {
				seqOut = run(seqC, equivtest.RoundVecs(seed, r, workers, dim))
			}

			parC := netsim.NewCluster(workers, netsim.DefaultCostModel())
			applyLinks(parC)
			eng := runtime.New(workers)
			defer eng.Close()
			cl, err := eng.Open(d, opts())
			if err != nil {
				t.Fatal(err)
			}
			var parOut []tensor.Vec
			for r := 0; r < rounds; r++ {
				parOut = cl.Run(parC, equivtest.RoundVecs(seed, r, workers, dim))
			}

			equivtest.RequireSameVecs(t, seqOut, parOut)
			equivtest.RequireSameClusters(t, seqC, parC)

			// The overrides must actually have fired: the charged clocks
			// differ from a uniform-model run of the same schedule.
			uniC := netsim.NewCluster(workers, netsim.DefaultCostModel())
			uniRun, err := d.Seq(opts())
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				uniRun(uniC, equivtest.RoundVecs(seed, r, workers, dim))
			}
			same := true
			for w := 0; w < workers; w++ {
				if seqC.Clock(w) != uniC.Clock(w) {
					same = false
				}
			}
			if same {
				t.Fatal("per-link overrides did not change the charged clocks")
			}
		})
	}
}

// TestCalibrationObservation is the recorder's integration sanity
// check: with calibration active, running a registry collective on the
// concurrent engine produces per-rank entries with runs counted,
// measured transmit wall time, and the predicted virtual seconds
// matching the cluster's phase breakdown.
func TestCalibrationObservation(t *testing.T) {
	const workers, dim = 4, 257
	reg := obs.NewRegistry()
	rec := reg.EnsureCalib(workers)
	defer obs.SetActive(reg)()

	d, err := registry.Get("rar")
	if err != nil {
		t.Fatal(err)
	}
	c := netsim.NewCluster(workers, netsim.DefaultCostModel())
	eng := runtime.New(workers)
	defer eng.Close()
	cl, err := eng.Open(d, &registry.Opts{Workers: workers, Dim: dim, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if outs := cl.Run(c, equivtest.RandVecs(11, workers, dim)); len(outs) != workers {
		t.Fatalf("outputs = %d", len(outs))
	}

	snap := rec.Snapshot()
	if len(snap) != workers {
		t.Fatalf("snapshot entries = %d, want %d", len(snap), workers)
	}
	for _, e := range snap {
		if e.Collective != "rar" || e.Runs != 1 {
			t.Fatalf("entry %+v", e)
		}
		if e.WallNanos[2] <= 0 {
			t.Fatalf("rank %d: no measured transmit wall time", e.Rank)
		}
		bd := c.PhaseBreakdown(e.Rank)
		for ph := 0; ph < obs.NumCalibPhases; ph++ {
			if diff := e.VirtSeconds[ph] - bd[ph]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("rank %d phase %d: recorded %v, cluster %v", e.Rank, ph, e.VirtSeconds[ph], bd[ph])
			}
		}
		if e.VirtSeconds[2] <= 0 {
			t.Fatalf("rank %d: no predicted transmit time", e.Rank)
		}
	}
}
