// Package equivtest is the shared cross-engine equivalence harness of
// the reproduction: one spec table drives every ported collective
// through the sequential engine and the concurrent engine over both
// fabric backends (in-process loopback and real TCP sockets), across a
// fixed set of cluster shapes (M = 2, odd M, larger rings, square,
// rectangular and degenerate tori) and unbalanced dimensions, and
// demands bit-identical results plus identical α–β accounting — wire
// bytes exact, per-worker clocks and phase breakdowns to 1e-12.
//
// A Spec provides two closures that run the same logical collective
// from the same derived seed: Seq on a fresh cluster with the
// single-threaded lock-step engine, Par on a fresh cluster with a
// *runtime.Engine. Both return the per-rank output vectors (whatever
// encoding the spec chooses, as long as both sides build it the same
// way). Run executes the full spec × shape × dim × backend matrix as
// subtests.
//
// The comparison helpers (RequireSameClusters, RequireSameVecs) are
// exported separately so the engine-level tests that do not fit the
// spec shape — core's round-by-round Marsit equivalence, the one-bit
// lockstep references — share the same acceptance bar instead of
// duplicating it.
package equivtest

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
	"marsit/internal/transport/faultwrap"
	"marsit/internal/transport/hybrid"
	"marsit/internal/transport/shm"
	"marsit/internal/transport/tcp"
)

// Shape is one cluster configuration a spec runs on.
type Shape struct {
	// Name labels the subtest.
	Name string
	// Workers is the cluster size M.
	Workers int
	// Torus is non-nil for torus schedules (Torus.Size() == Workers).
	Torus *topology.Torus
}

// RingShapes returns the ring shapes every ring collective must cover:
// the degenerate single worker, the M=2 edge, an odd M, and larger
// rings.
func RingShapes() []Shape {
	return []Shape{
		{Name: "M=1", Workers: 1},
		{Name: "M=2", Workers: 2},
		{Name: "M=3", Workers: 3},
		{Name: "M=4", Workers: 4},
		{Name: "M=8", Workers: 8},
	}
}

// TorusShapes returns the torus shapes every torus collective must
// cover: square, both rectangular orientations, and the degenerate
// single-row and single-column tori.
func TorusShapes() []Shape {
	shapes := [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {1, 4}, {4, 1}}
	out := make([]Shape, 0, len(shapes))
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		out = append(out, Shape{
			Name:    fmt.Sprintf("%dx%d", rows, cols),
			Workers: rows * cols,
			Torus:   topology.NewTorus(rows, cols),
		})
	}
	return out
}

// DefaultDims are the dimensions specs run at: the degenerate D=1
// (zero-length ring segments), tiny (segments shorter than the ring),
// unbalanced partitions, and a moderate size.
var DefaultDims = []int{1, 5, 64, 257}

// Spec is one collective's cross-engine equivalence contract.
type Spec struct {
	// Name labels the spec's subtests.
	Name string
	// Shapes defaults to RingShapes when nil.
	Shapes []Shape
	// Dims defaults to DefaultDims when nil.
	Dims []int
	// Seq runs the collective on the sequential engine and returns the
	// per-rank outputs.
	Seq func(c *netsim.Cluster, sh Shape, d int, seed uint64) []tensor.Vec
	// Par runs the collective on the concurrent engine and returns the
	// per-rank outputs.
	Par func(eng *runtime.Engine, c *netsim.Cluster, sh Shape, d int, seed uint64) []tensor.Vec
}

// Backends are the fabric backends the matrix covers by default:
// in-process channels, TCP sockets, cross-process shared-memory rings,
// and the hybrid per-link split (shm intra-host, TCP inter-host).
var Backends = []string{"loopback", "tcp", "shm", "hybrid"}

// JitterBackends are the fault-injected backends: the same fabrics
// wrapped in the faultwrap delay middleware with real jitter and a 3×
// straggler on the last rank. Results, wire bytes and clocks must stay
// bit-identical — injected delay may only move wall time.
var JitterBackends = []string{"loopback-jitter", "tcp-jitter", "shm-jitter", "hybrid-jitter"}

// Run executes every spec over its full shape × dim × backend matrix.
// Every backend runs every dimension: the small ones are where real
// fabrics carry empty hop frames and frames of a few bytes (D=1 leaves
// most ring segments empty).
func Run(t *testing.T, specs []Spec) {
	RunBackends(t, specs, Backends)
}

// RunBackends is Run over an explicit backend list (Backends,
// JitterBackends, or any subset).
func RunBackends(t *testing.T, specs []Spec, backends []string) {
	for _, spec := range specs {
		shapes := spec.Shapes
		if shapes == nil {
			shapes = RingShapes()
		}
		dims := spec.Dims
		if dims == nil {
			dims = DefaultDims
		}
		t.Run(spec.Name, func(t *testing.T) {
			var backendsDone sync.WaitGroup
			defer backendsDone.Wait()
			for _, backend := range backends {
				// A jittered case spends its time asleep in faultwrap, not
				// computing, so one spec's jittered backends and cases all
				// overlap.
				overlap := strings.HasSuffix(backend, "-jitter")
				runSub(t, &backendsDone, overlap, backend, func(t *testing.T) {
					var casesDone sync.WaitGroup
					defer casesDone.Wait()
					for _, sh := range shapes {
						for _, d := range dims {
							runSub(t, &casesDone, overlap, fmt.Sprintf("%s_D=%d", sh.Name, d), func(t *testing.T) {
								runCase(t, spec, backend, sh, d)
							})
						}
					}
				})
			}
		})
	}
}

// runSub runs f as subtest name of t: in line, or with overlap on its
// own goroutine, in which case the caller must wait on done before it
// returns. t.Run may be called from several goroutines at once and,
// unlike t.Parallel, is not capped at GOMAXPROCS subtests in flight.
func runSub(t *testing.T, done *sync.WaitGroup, overlap bool, name string, f func(t *testing.T)) {
	if !overlap {
		t.Run(name, f)
		return
	}
	done.Add(1)
	go func() {
		defer done.Done()
		t.Run(name, f)
	}()
}

func runCase(t *testing.T, spec Spec, backend string, sh Shape, d int) {
	t.Helper()
	seed := caseSeed(sh, d)
	seqC := netsim.NewCluster(sh.Workers, netsim.DefaultCostModel())
	parC := netsim.NewCluster(sh.Workers, netsim.DefaultCostModel())

	seqOut := spec.Seq(seqC, sh, d, seed)

	eng := newEngine(t, backend, sh.Workers)
	defer eng.Close()
	parOut := spec.Par(eng, parC, sh, d, seed)

	RequireSameVecs(t, seqOut, parOut)
	RequireSameClusters(t, seqC, parC)
}

// caseSeed derives a deterministic per-case seed so Seq and Par consume
// identical inputs and streams.
func caseSeed(sh Shape, d int) uint64 {
	seed := uint64(sh.Workers)*1_000_003 + uint64(d)*9176
	if sh.Torus != nil {
		seed += uint64(sh.Torus.Rows()) * 131
	}
	return seed
}

// jitterCfg is the fault injection the *-jitter backends run under:
// real per-send jitter plus a 3× straggler on the last rank, from a
// fixed seed. Small enough to keep the matrix fast, large enough that a
// delay leaking into results or accounting would not hide in a
// tolerance.
func jitterCfg(workers int) faultwrap.Config {
	return faultwrap.Config{
		Seed:            0xca11b,
		Base:            20 * time.Microsecond,
		Jitter:          80 * time.Microsecond,
		Straggler:       workers - 1,
		StragglerFactor: 3,
	}
}

// newEngine builds a concurrent engine over the requested backend.
func newEngine(t testing.TB, backend string, workers int) *runtime.Engine {
	t.Helper()
	switch backend {
	case "loopback":
		return runtime.New(workers)
	case "tcp":
		f, err := tcp.NewLocal(workers)
		if err != nil {
			t.Fatalf("tcp fabric: %v", err)
		}
		return runtime.NewWithOwnedTransport(f)
	case "loopback-jitter":
		return runtime.NewWithOwnedTransport(
			faultwrap.Wrap(transport.NewLoopback(workers), jitterCfg(workers)))
	case "tcp-jitter":
		f, err := tcp.NewLocal(workers)
		if err != nil {
			t.Fatalf("tcp fabric: %v", err)
		}
		return runtime.NewWithOwnedTransport(faultwrap.Wrap(f, jitterCfg(workers)))
	case "shm":
		f, err := shm.NewLocal(workers)
		if err != nil {
			t.Fatalf("shm fabric: %v", err)
		}
		return runtime.NewWithOwnedTransport(f)
	case "shm-jitter":
		f, err := shm.NewLocal(workers)
		if err != nil {
			t.Fatalf("shm fabric: %v", err)
		}
		return runtime.NewWithOwnedTransport(faultwrap.Wrap(f, jitterCfg(workers)))
	case "hybrid":
		f, err := hybrid.NewLocal(workers)
		if err != nil {
			t.Fatalf("hybrid fabric: %v", err)
		}
		return runtime.NewWithOwnedTransport(f)
	case "hybrid-jitter":
		f, err := hybrid.NewLocal(workers)
		if err != nil {
			t.Fatalf("hybrid fabric: %v", err)
		}
		return runtime.NewWithOwnedTransport(faultwrap.Wrap(f, jitterCfg(workers)))
	default:
		t.Fatalf("unknown backend %q", backend)
		return nil
	}
}

// accountingTol bounds the float summation-order drift tolerated on
// clocks and phase breakdowns (bytes are compared exactly).
const accountingTol = 1e-12

// RequireSameClusters asserts the two clusters were charged
// identically: exact wire bytes, and per-worker clocks and phase
// breakdowns within accountingTol.
func RequireSameClusters(t testing.TB, seq, par *netsim.Cluster) {
	t.Helper()
	if seq.Size() != par.Size() {
		t.Fatalf("cluster sizes: seq %d, par %d", seq.Size(), par.Size())
	}
	if seq.TotalBytes() != par.TotalBytes() {
		t.Fatalf("wire bytes: seq %d, par %d", seq.TotalBytes(), par.TotalBytes())
	}
	for w := 0; w < seq.Size(); w++ {
		if seq.BytesSent(w) != par.BytesSent(w) {
			t.Fatalf("worker %d bytes: seq %d, par %d", w, seq.BytesSent(w), par.BytesSent(w))
		}
		if diff := math.Abs(seq.Clock(w) - par.Clock(w)); diff > accountingTol {
			t.Fatalf("worker %d clock: seq %v, par %v", w, seq.Clock(w), par.Clock(w))
		}
		sb, pb := seq.PhaseBreakdown(w), par.PhaseBreakdown(w)
		for ph := range sb {
			if diff := math.Abs(sb[ph] - pb[ph]); diff > accountingTol {
				t.Fatalf("worker %d phase %v: seq %v, par %v",
					w, netsim.Phase(ph), sb[ph], pb[ph])
			}
		}
	}
}

// RequireSameVecs asserts bit-exact equality of the per-rank outputs.
func RequireSameVecs(t testing.TB, want, got []tensor.Vec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("output counts: want %d, got %d", len(want), len(got))
	}
	for w := range want {
		if len(want[w]) != len(got[w]) {
			t.Fatalf("rank %d output dims: want %d, got %d", w, len(want[w]), len(got[w]))
		}
		for i := range want[w] {
			if math.Float64bits(want[w][i]) != math.Float64bits(got[w][i]) {
				t.Fatalf("rank %d elem %d: want %v, got %v", w, i, want[w][i], got[w][i])
			}
		}
	}
}

// RandVecs returns n deterministic standard-normal vectors of dimension
// d — the shared input generator, so seq and par legs (and different
// packages' tests) draw identical data from a seed.
func RandVecs(seed uint64, n, d int) []tensor.Vec {
	r := rng.New(seed)
	out := make([]tensor.Vec, n)
	for w := range out {
		out[w] = r.NormVec(make(tensor.Vec, d), 0, 1)
	}
	return out
}

// CloneVecs deep-copies a vector set.
func CloneVecs(vecs []tensor.Vec) []tensor.Vec {
	out := make([]tensor.Vec, len(vecs))
	for i, v := range vecs {
		out[i] = tensor.Clone(v)
	}
	return out
}

// ---------------------------------------------------------------------------
// Registry-driven matrix

// The fixed schedule parameters the generated matrix uses for
// K-periodic collectives: three rounds with K = 3 cover the
// full-precision round (t = 0) and two one-bit rounds. Caps.NeedsK
// descriptors also run every round one-bit (K = 0, the paper's Marsit)
// and every round full precision (K = 1, fig3's PSGD row).
const (
	registryK        = 3
	registryGlobalLR = 0.01
)

// RunRegistry executes the full cross-engine acceptance matrix for
// every collective registered in internal/collective/registry: each
// descriptor's sequential and per-rank legs run over
// every backend × shape × dim (plus an Elias variant and a torus
// variant where the descriptor's caps allow them) and must agree bit
// for bit. The caller must import the registering packages
// (internal/runtime, internal/core) so the registry is populated — a
// descriptor registered after this harness runs is not covered.
func RunRegistry(t *testing.T) {
	Run(t, RegistrySpecs())
}

// RegistrySpecs generates one equivalence Spec per registered
// collective variant: the base spec, an "-elias" spec for Caps.Elias
// descriptors, a "-torus" spec (over the torus shape set) for ring
// descriptors with Caps.Torus, and for Caps.NeedsK descriptors each of
// those again at K = 0 and K = 1 ("-k0", "-k1"). Torus-based
// descriptors run over the torus shape set directly.
func RegistrySpecs() []Spec {
	var specs []Spec
	for _, d := range registry.All() {
		eliases := []bool{false}
		if d.Caps.Elias {
			eliases = append(eliases, true)
		}
		ks := []int{registryK}
		if d.Caps.NeedsK {
			ks = append(ks, 0, 1)
		}
		for _, k := range ks {
			for _, elias := range eliases {
				specs = append(specs, registrySpec(d, elias, false, k))
				if d.Caps.Torus {
					specs = append(specs, registrySpec(d, elias, true, k))
				}
			}
		}
	}
	return specs
}

// registrySpec builds the Spec for one descriptor variant. Both legs
// derive identical Opts and per-round inputs from the case seed; the
// runners are created once per case so stateful collectives carry
// their state across the EquivRounds rounds.
func registrySpec(d *registry.Descriptor, elias, torus bool, k int) Spec {
	name := d.Name
	if elias {
		name += "-elias"
	}
	var shapes []Shape
	if torus {
		name += "-torus"
	}
	if k != registryK {
		name += fmt.Sprintf("-k%d", k)
	}
	if torus || d.Topology == registry.Torus {
		shapes = TorusShapes()
	}
	rounds := d.EquivRounds
	if rounds < 1 {
		rounds = 1
	}
	opts := func(sh Shape, dim int, seed uint64) *registry.Opts {
		return &registry.Opts{
			Workers: sh.Workers, Dim: dim, Torus: sh.Torus, Elias: elias,
			Seed: seed, K: k, GlobalLR: registryGlobalLR,
		}
	}
	return Spec{
		Name:   name,
		Shapes: shapes,
		Seq: func(c *netsim.Cluster, sh Shape, dim int, seed uint64) []tensor.Vec {
			run, err := d.Seq(opts(sh, dim, seed))
			if err != nil {
				panic(fmt.Sprintf("equivtest: %s seq leg: %v", name, err))
			}
			var outs []tensor.Vec
			for r := 0; r < rounds; r++ {
				outs = run(c, RoundVecs(seed, r, sh.Workers, dim))
			}
			return outs
		},
		Par: func(eng *runtime.Engine, c *netsim.Cluster, sh Shape, dim int, seed uint64) []tensor.Vec {
			cl, err := eng.Open(d, opts(sh, dim, seed))
			if err != nil {
				panic(fmt.Sprintf("equivtest: %s par leg: %v", name, err))
			}
			var outs []tensor.Vec
			for r := 0; r < rounds; r++ {
				outs = cl.Run(c, RoundVecs(seed, r, sh.Workers, dim))
			}
			return outs
		},
	}
}

// RoundVecs derives round r's per-rank input vectors from the case
// seed — the same mixing on both legs, so a multi-round spec feeds
// identical fresh gradients to each engine every round.
func RoundVecs(seed uint64, round, n, d int) []tensor.Vec {
	return RandVecs(seed^(0x9e3779b97f4a7c15*uint64(round+1)), n, d)
}
