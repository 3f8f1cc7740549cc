package runtime_test

import (
	"fmt"
	"math"
	"testing"

	"marsit/internal/collective"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/tensor"
	"marsit/internal/topology"

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

// TestCollectiveEquivalenceJitter is the fault-injection leg of the
// acceptance matrix: every registered collective re-runs over both
// fabrics wrapped in the faultwrap delay middleware (seeded per-pair
// jitter plus a 3× straggler on the last rank) and must stay
// bit-identical to the sequential engine on results, wire bytes and
// α–β clocks. Injected delay may move wall time only.
func TestCollectiveEquivalenceJitter(t *testing.T) {
	equivtest.RunBackends(t, equivtest.RegistrySpecs(), equivtest.JitterBackends)
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

// TestSSDMSeqMatchesOverflowRing pins the registered "ssdm" — SignVote's
// stochastic ring member — to collective.OverflowRing, the SSDM
// (Overflow) baseline the fig1 experiment runs: over three rounds of one
// stateful runner, the descriptor's sequential leg must reproduce the
// oracle's results, clocks, wire bytes and phase breakdowns bit for bit,
// for raw and Elias-coded sign sums. (The per-rank leg is held to the
// sequential one by the equivalence matrix.)
func TestSSDMSeqMatchesOverflowRing(t *testing.T) {
	desc, err := registry.Get("ssdm")
	if err != nil {
		t.Fatal(err)
	}
	const seed, rounds = 21, 3
	for _, m := range []int{2, 3, 4, 8} {
		for _, d := range equivtest.DefaultDims {
			for _, elias := range []bool{false, true} {
				t.Run(fmt.Sprintf("M=%d/D=%d/elias=%v", m, d, elias), func(t *testing.T) {
					o := &registry.Opts{Workers: m, Dim: d, Elias: elias, Seed: seed}
					if err := registry.Prepare(desc, o); err != nil {
						t.Fatal(err)
					}
					run, err := desc.Seq(o)
					if err != nil {
						t.Fatal(err)
					}
					streams := (&registry.Opts{Workers: m, Seed: seed}).AllStreams()
					got := netsim.NewCluster(m, netsim.DefaultCostModel())
					want := netsim.NewCluster(m, netsim.DefaultCostModel())
					for r := 0; r < rounds; r++ {
						outs := run(got, equivtest.RoundVecs(seed, r, m, d))
						vecs := equivtest.RoundVecs(seed, r, m, d)
						collective.OverflowRing(want, vecs, streams, elias)
						equivtest.RequireSameVecs(t, vecs, outs)
						for w := 0; w < m; w++ {
							if got.BytesSent(w) != want.BytesSent(w) {
								t.Fatalf("round %d worker %d bytes: %d, oracle %d", r, w, got.BytesSent(w), want.BytesSent(w))
							}
							gb, wb := got.PhaseBreakdown(w), want.PhaseBreakdown(w)
							if math.Float64bits(got.Clock(w)) != math.Float64bits(want.Clock(w)) || gb != wb {
								t.Fatalf("round %d worker %d: clock %v phases %v, oracle %v %v",
									r, w, got.Clock(w), gb, want.Clock(w), wb)
							}
						}
					}
				})
			}
		}
	}
}

// TestRingIsDegenerateTorus pins the convention every ring/torus
// schedule rests on: the flat ring is the 1×M torus, whose column phase
// is empty, and equally the M×1 torus, whose one column ring is the
// ring. For each payload — full precision (rar against tar), the sign
// sums raw and Elias-coded, and Marsit at K = 3 over three rounds, so
// the one-bit rounds run too — the ring and each degenerate torus must
// agree bit for bit on both engines: results, per-rank wire bytes,
// clocks and phase breakdowns.
func TestRingIsDegenerateTorus(t *testing.T) {
	const workers, dim, rounds, seed = 4, 37, 3, 0x7a5
	run := func(c *netsim.Cluster, step func(c *netsim.Cluster, vecs []tensor.Vec) []tensor.Vec) []tensor.Vec {
		var outs []tensor.Vec
		for r := 0; r < rounds; r++ {
			outs = step(c, equivtest.RoundVecs(seed, r, workers, dim))
		}
		return outs
	}
	engines := []struct {
		name string
		run  func(t *testing.T, desc *registry.Descriptor, o *registry.Opts, c *netsim.Cluster) []tensor.Vec
	}{
		{"seq", func(t *testing.T, desc *registry.Descriptor, o *registry.Opts, c *netsim.Cluster) []tensor.Vec {
			step, err := desc.Seq(o)
			if err != nil {
				t.Fatal(err)
			}
			return run(c, step)
		}},
		{"par", func(t *testing.T, desc *registry.Descriptor, o *registry.Opts, c *netsim.Cluster) []tensor.Vec {
			eng := runtime.New(workers)
			defer eng.Close()
			cl, err := eng.Open(desc, o)
			if err != nil {
				t.Fatal(err)
			}
			return run(c, cl.Run)
		}},
	}
	for _, pair := range []struct {
		name, ring, torus string
		elias             bool
	}{
		{"rar-tar", "rar", "tar", false},
		{"signsum", "signsum", "signsum", false},
		{"signsum-elias", "signsum", "signsum", true},
		{"marsit-k3", "marsit", "marsit", false},
	} {
		opts := func(tor *topology.Torus) *registry.Opts {
			return &registry.Opts{Workers: workers, Dim: dim, Torus: tor, Elias: pair.elias,
				Seed: seed, K: 3, GlobalLR: 0.01}
		}
		ringDesc, err := registry.Get(pair.ring)
		if err != nil {
			t.Fatal(err)
		}
		torusDesc, err := registry.Get(pair.torus)
		if err != nil {
			t.Fatal(err)
		}
		for _, tor := range []*topology.Torus{topology.NewTorus(1, workers), topology.NewTorus(workers, 1)} {
			for _, e := range engines {
				t.Run(fmt.Sprintf("%s/%dx%d/%s", pair.name, tor.Rows(), tor.Cols(), e.name), func(t *testing.T) {
					ringC := netsim.NewCluster(workers, netsim.DefaultCostModel())
					torusC := netsim.NewCluster(workers, netsim.DefaultCostModel())
					want := e.run(t, ringDesc, opts(nil), ringC)
					got := e.run(t, torusDesc, opts(tor), torusC)
					equivtest.RequireSameVecs(t, want, got)
					for w := 0; w < workers; w++ {
						rb, tb := ringC.PhaseBreakdown(w), torusC.PhaseBreakdown(w)
						if ringC.BytesSent(w) != torusC.BytesSent(w) ||
							math.Float64bits(ringC.Clock(w)) != math.Float64bits(torusC.Clock(w)) || rb != tb {
							t.Fatalf("worker %d: ring %d B, clock %v, phases %v; torus %d B, clock %v, phases %v",
								w, ringC.BytesSent(w), ringC.Clock(w), rb, torusC.BytesSent(w), torusC.Clock(w), tb)
						}
					}
				})
			}
		}
	}
}

// specialValueVecs returns one vector per rank of workers built from
// per-rank value columns that stress the full-precision arithmetic:
// signed zeros, infinities (alone, paired and opposed), a NaN on one
// rank only, denormals, and 1e16, 1, −1e16 at one index on different
// ranks, whose sum depends on association. There is no column of NaNs
// on several ranks: which operand's payload an addition of two NaNs
// keeps is up to the compiler (Go treats float addition as
// commutative), and under -race even addFloats and tensor.Add keep
// different ones. Each column is laid out once
// per rotation of the ranks, so every segment of every ring sees every
// column with a different rank holding each value.
func specialValueVecs(workers int) []tensor.Vec {
	negZero, inf, tiny := math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64
	columns := [][]float64{
		{0, 0, 0, 0},
		{negZero, negZero, negZero, negZero},
		{negZero, 0, negZero, negZero},
		{inf, 1, 2, 3},
		{-inf, 1, 2, 3},
		{inf, -inf, 1, 1},
		{inf, inf, -2, 0},
		{math.NaN(), 1, 2, 3},
		{tiny, tiny, tiny, tiny},
		{3 * tiny, -tiny, 5 * tiny, negZero},
		{0x1p-1022, -tiny, 0x1p-1023, tiny},
		{1e16, 1, -1e16, 0},
		{1, 1e16, 1, -1e16},
		{-1e16, 0.5, 1e16, 1},
	}
	vecs := make([]tensor.Vec, workers)
	for w := range vecs {
		for rot := 0; rot < workers; rot++ {
			for _, col := range columns {
				vecs[w] = append(vecs[w], col[(w+rot)%len(col)])
			}
		}
	}
	return vecs
}

// TestFullPrecisionSpecialValues holds rar and tar to the sequential
// engine bit for bit on values where an extra, missing or reordered
// float operation shows: the per-rank legs forward partial sums in the
// frames they received and scale each segment once, on the rank that
// finishes its sum, and must still compute every element with the same
// operations on the same operands as collective.TorusAllReduce. Each
// torus shape runs both registry legs against a direct call of the
// sequential reference; results must match bit for bit and the clusters
// must be charged identically.
func TestFullPrecisionSpecialValues(t *testing.T) {
	const workers = 4
	inputs := specialValueVecs(workers)
	dim := len(inputs[0])
	for _, tc := range []struct {
		name string
		tor  *topology.Torus
	}{
		{"rar", nil},
		{"tar", topology.NewTorus(1, workers)},
		{"tar", topology.NewTorus(2, 2)},
		{"tar", topology.NewTorus(workers, 1)},
	} {
		desc, err := registry.Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		shape := topology.NewTorus(1, workers)
		if tc.tor != nil {
			shape = tc.tor
		}
		want := equivtest.CloneVecs(inputs)
		wantC := netsim.NewCluster(workers, netsim.DefaultCostModel())
		collective.TorusAllReduce(wantC, tc.tor, want)
		for _, engine := range []string{"seq", "par"} {
			t.Run(fmt.Sprintf("%s/%dx%d/%s", tc.name, shape.Rows(), shape.Cols(), engine), func(t *testing.T) {
				o := &registry.Opts{Workers: workers, Dim: dim, Torus: tc.tor}
				c := netsim.NewCluster(workers, netsim.DefaultCostModel())
				var got []tensor.Vec
				if engine == "seq" {
					run, err := desc.Seq(o)
					if err != nil {
						t.Fatal(err)
					}
					got = run(c, equivtest.CloneVecs(inputs))
				} else {
					eng := runtime.New(workers)
					defer eng.Close()
					cl, err := eng.Open(desc, o)
					if err != nil {
						t.Fatal(err)
					}
					got = cl.Run(c, equivtest.CloneVecs(inputs))
				}
				equivtest.RequireSameVecs(t, want, got)
				equivtest.RequireSameClusters(t, wantC, c)
			})
		}
	}
}
