package marsit_test

import (
	"math"
	"strings"
	"testing"

	"marsit"
	"marsit/internal/collective"
	"marsit/internal/collective/registry"
	"marsit/internal/experiments"
	"marsit/internal/rng"
	"marsit/internal/tensor"
)

func facadeGrads(seed uint64, n, d int) []marsit.Vec {
	out := make([]marsit.Vec, n)
	for w := range out {
		r := rng.NewStream(seed, uint64(w))
		out[w] = r.NormVec(make(marsit.Vec, d), 0, 1)
	}
	return out
}

// TestFacadeNewCollectives smoke-runs every newly registered scenario
// through the public facade on both engines and checks cross-engine
// bit-equality (the deep equivalence matrix lives in
// internal/runtime/equivtest; this pins the facade wiring).
func TestFacadeNewCollectives(t *testing.T) {
	const n, d = 4, 33
	cases := []struct {
		name string
		opts []marsit.RunOption
	}{
		{"gossip", nil},
		{"tree", nil},
		{"onebit-tree", nil},
		{"powersgd", []marsit.RunOption{marsit.WithPowerRank(3)}},
		{"hier", []marsit.RunOption{marsit.WithTorus(2, 2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSameOutputs(t, facadeRun(t, tc.name, n, d, marsit.EngineSeq, tc.opts...),
				facadeRun(t, tc.name, n, d, marsit.EnginePar, tc.opts...))
		})
	}
}

// TestFacadeMarsitPeriod pins WithK and WithTorus through the facade on
// both engines. At K = 1 every round is full precision, so a marsit
// round is bit for bit the ring all-reduce, and on a 2×4 torus the
// torus all-reduce; at K = 0 the first round is already one-bit, so
// every element is ±η_s.
func TestFacadeMarsitPeriod(t *testing.T) {
	const n, d, eta = 8, 33, 0.05
	for _, eng := range []marsit.EngineKind{marsit.EngineSeq, marsit.EnginePar} {
		t.Run(string(eng), func(t *testing.T) {
			t.Run("K=1_ring_is_rar", func(t *testing.T) {
				requireSameOutputs(t, facadeRun(t, "rar", n, d, eng),
					facadeRun(t, "marsit", n, d, eng, marsit.WithK(1)))
			})
			t.Run("K=1_torus_is_tar", func(t *testing.T) {
				torus := marsit.WithTorus(2, 4)
				requireSameOutputs(t, facadeRun(t, "tar", n, d, eng, torus),
					facadeRun(t, "marsit", n, d, eng, marsit.WithK(1), torus))
			})
			t.Run("K=0_is_one_bit", func(t *testing.T) {
				out := facadeRun(t, "marsit", n, d, eng, marsit.WithK(0), marsit.WithGlobalLR(eta))
				for w := range out {
					for i, x := range out[w] {
						if x != eta && x != -eta {
							t.Fatalf("worker %d coordinate %d: %v, want ±%v", w, i, x, eta)
						}
					}
				}
			})
		})
	}
}

// facadeRun runs one round of the named collective through marsit.Run
// on engine over facadeGrads(7, n, d) with seed 7.
func facadeRun(t *testing.T, name string, n, d int, engine marsit.EngineKind, opts ...marsit.RunOption) []marsit.Vec {
	t.Helper()
	out, err := marsit.Run(name, facadeGrads(7, n, d),
		append([]marsit.RunOption{marsit.WithSeed(7), marsit.WithEngine(engine)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("%s: %d outputs, want %d", name, len(out), n)
	}
	return out
}

// requireSameOutputs fails unless want and got are bit for bit equal.
func requireSameOutputs(t *testing.T, want, got []marsit.Vec) {
	t.Helper()
	for w := range want {
		for i := range want[w] {
			if math.Float64bits(want[w][i]) != math.Float64bits(got[w][i]) {
				t.Fatalf("worker %d coordinate %d: want %v, got %v", w, i, want[w][i], got[w][i])
			}
		}
	}
}

// TestEngineFacade exercises marsit.NewEngine through the public API and
// cross-checks it against the sequential collective, plus a stateful
// Marsit opened on the same engine.
func TestEngineFacade(t *testing.T) {
	const workers, dim = 4, 513
	r := rng.New(29)
	base := make([]marsit.Vec, workers)
	for w := range base {
		base[w] = r.NormVec(make(marsit.Vec, dim), 0, 1)
	}
	seqV := make([]marsit.Vec, workers)
	parV := make([]marsit.Vec, workers)
	for w := range base {
		seqV[w] = tensor.Clone(base[w])
		parV[w] = tensor.Clone(base[w])
	}
	seqC, parC := marsit.NewCluster(workers), marsit.NewCluster(workers)
	collective.RingAllReduce(seqC, seqV)
	eng := marsit.NewEngine(workers)
	defer eng.Close()
	rar, err := registry.Get("rar")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := eng.Open(rar, &registry.Opts{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(parC, parV)
	for w := range seqV {
		for i := range seqV[w] {
			if seqV[w][i] != parV[w][i] {
				t.Fatalf("worker %d elem %d: seq %v, par %v", w, i, seqV[w][i], parV[w][i])
			}
		}
	}
	if seqC.TotalBytes() != parC.TotalBytes() {
		t.Fatalf("bytes: seq %d, par %d", seqC.TotalBytes(), parC.TotalBytes())
	}

	// Stateful Marsit on the engine: the opened collective keeps every
	// rank's compensation across Run calls.
	mars, err := registry.Get("marsit")
	if err != nil {
		t.Fatal(err)
	}
	sync, err := eng.Open(mars, &registry.Opts{Dim: dim, K: 2, GlobalLR: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cluster := marsit.NewCluster(workers)
	for round := 0; round < 4; round++ {
		if gt := sync.Run(cluster, base)[0]; len(gt) != dim {
			t.Fatalf("round %d: g_t dim %d", round, len(gt))
		}
	}
}

// TestFacadeQuickstart exercises the public API end to end (the
// example in the package documentation).
func TestFacadeQuickstart(t *testing.T) {
	const workers, dim = 4, 1000
	sync := marsit.MustNew(marsit.Config{Workers: workers, Dim: dim, K: 3, GlobalLR: 0.05, Seed: 2})
	cluster := marsit.NewCluster(workers)
	r := rng.New(5)
	for round := 0; round < 6; round++ {
		grads := make([]marsit.Vec, workers)
		for w := range grads {
			grads[w] = r.NormVec(make(marsit.Vec, dim), 0, 1)
		}
		gt := sync.Sync(cluster, grads)
		if len(gt) != dim {
			t.Fatalf("round %d: g_t dim %d", round, len(gt))
		}
	}
	if cluster.TotalBytes() <= 0 {
		t.Fatal("no traffic accounted")
	}
	if tensor.Norm2(sync.MeanCompensation()) < 0 {
		t.Fatal("unreachable")
	}
}

// TestFacadeTorus exercises the TAR configuration via the facade.
func TestFacadeTorus(t *testing.T) {
	tor := marsit.SquareTorus(4)
	if tor.Rows() != 2 || tor.Cols() != 2 {
		t.Fatalf("SquareTorus(4) = %dx%d", tor.Rows(), tor.Cols())
	}
	sync := marsit.MustNew(marsit.Config{Workers: 4, Dim: 64, K: 0, GlobalLR: 0.01, Torus: tor, Seed: 3})
	cluster := marsit.NewClusterWithModel(4, marsit.DefaultCostModel())
	r := rng.New(7)
	grads := make([]marsit.Vec, 4)
	for w := range grads {
		grads[w] = r.NormVec(make(marsit.Vec, 64), 0, 1)
	}
	gt := sync.Sync(cluster, grads)
	for _, x := range gt {
		if x != 0.01 && x != -0.01 {
			t.Fatalf("non-one-bit update %v", x)
		}
	}
}

// TestExperimentOutputsRender pins the set of experiment ids
// marsit-bench -exp serves: one per table and figure of the paper's
// evaluation.
func TestExperimentOutputsRender(t *testing.T) {
	covered := map[string]bool{
		"table1": true, "fig1a": true, "fig1b": true, "fig3": true,
		"table2": true, "fig4a": true, "fig4b": true, "fig5": true,
		"remark": true, "ablation": true,
	}
	for _, id := range experiments.IDs() {
		if !covered[id] {
			t.Fatalf("unexpected experiment id %q", id)
		}
	}
	if len(experiments.IDs()) != len(covered) {
		t.Fatalf("experiment list out of date: %s", strings.Join(experiments.IDs(), ","))
	}
}
