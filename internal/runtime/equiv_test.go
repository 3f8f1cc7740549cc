package runtime_test

import (
	"fmt"
	"testing"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"

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

// TestCostModelEquivalence runs every registered collective under a
// cost model whose α, β and (de)compression constants all differ from
// the default one (the matrix above runs the default only): both engines
// must still agree bit for bit, so every per-rank leg charges the
// cluster's own CostModel and not a constant of its own. The clocks must
// also differ from a default-model run, or the model never reached them.
func TestCostModelEquivalence(t *testing.T) {
	const dim = 257
	model := netsim.DefaultCostModel()
	model.Latency *= 3
	model.BytePeriod *= 5
	model.CompressPerElem *= 7
	model.DecompressPerElem *= 11
	for _, spec := range equivtest.RegistrySpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			sh := equivtest.Shape{Name: "M=4", Workers: 4}
			for _, s := range spec.Shapes {
				if s.Workers == 4 {
					sh = s
				}
			}
			const seed = 0xc057
			seqC := netsim.NewCluster(sh.Workers, model)
			seqOut := spec.Seq(seqC, sh, dim, seed)
			parC := netsim.NewCluster(sh.Workers, model)
			eng := runtime.New(sh.Workers)
			defer eng.Close()
			parOut := spec.Par(eng, parC, sh, dim, seed)
			equivtest.RequireSameVecs(t, seqOut, parOut)
			equivtest.RequireSameClusters(t, seqC, parC)

			defC := netsim.NewCluster(sh.Workers, netsim.DefaultCostModel())
			spec.Seq(defC, sh, dim, seed)
			for w := 0; w < sh.Workers; w++ {
				if seqC.Clock(w) != defC.Clock(w) {
					return
				}
			}
			t.Fatal("the cost model did not change any clock")
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
