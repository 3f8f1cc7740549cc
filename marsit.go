// Package marsit is the public API of the Marsit reproduction — a
// learning synchronization framework that performs multi-hop all-reduce
// (ring or 2D-torus) with exactly one bit per gradient element
// ("Sign Bit is Enough", DAC 2022).
//
// # One call, every collective
//
// Every collective the repository implements — the one-bit Marsit
// schedules, full-precision RAR/TAR/PS, the sign-sum transports with
// bit-width expansion ± Elias coding, cascading SSDM, and the
// parameter-server family — registers once in a central registry and is
// invoked through one facade:
//
//	grads := ... // one gradient vector per worker
//	outs, err := marsit.Run("marsit", grads,
//	    marsit.WithGlobalLR(0.01),
//	    marsit.WithSeed(7),
//	)
//
// Options select the execution engine and fabric, the topology, and the
// schedule parameters:
//
//	marsit.Run("signsum", grads,
//	    marsit.WithEngine(marsit.EnginePar), // goroutine-per-worker engine
//	    marsit.WithTransport(marsit.TransportTCP),
//	    marsit.WithTorus(2, 4),
//	    marsit.WithElias(),
//	    marsit.WithSeed(3),
//	)
//
// marsit.Collectives returns the registered schedules with their
// topology, capability and wire-model metadata — the same listing the
// CLIs print and validate against. Every registered collective is
// covered by a generated cross-engine equivalence matrix
// (internal/runtime/equivtest): sequential and per-rank legs must agree
// bit for bit on results, wire bytes and α–β virtual clocks over both
// fabric backends.
//
// # Execution engines
//
// Two engines execute the collectives:
//
//   - Sequential (the default): a lock-step loop driven from the
//     calling goroutine mutates all workers' vectors over the netsim
//     substrate. Deterministic virtual time; the mode the paper figures
//     use. Marsit's one-bit rounds split their per-worker and
//     per-segment work across min(M, GOMAXPROCS) lanes, bit-identically.
//   - Parallel (EnginePar, Config.Parallel, or marsit.NewEngine for
//     direct engine access): the concurrent execution engine of
//     internal/runtime runs one goroutine per worker, each owning its
//     shard and exchanging messages through a pluggable Transport
//     (internal/transport). Four fabric backends exist: the in-process
//     loopback (the default), real TCP sockets (TransportTCP),
//     cross-process shared-memory rings (TransportSHM) and the hybrid
//     per-link split — shared memory intra-host, TCP inter-host
//     (TransportHybrid); cmd/marsit-node stretches the wire fabrics
//     across processes and machines.
//
// Either way a collective starts from its registry descriptor, and in
// one place: the descriptor's sequential leg, or the descriptor opened
// on an engine (Engine.Open, then Collective.Run every round) with one
// per-rank runner per worker goroutine. Run and the trainer pick between
// the two in a single helper. Algorithm 1 follows the same split: its
// arithmetic (lines 1 and 9–13 — the scaled gradient plus carry, the
// update, the compensation, the K-periodic reset) lives once, in the
// per-worker synchronizer a marsit-node process hosts, and a Marsit
// holds one per worker in either mode; only the schedule of the one-bit
// synchronization in between (lines 4–8) is stated per engine — in lock
// step for the figures, or per rank on an engine with Config.Parallel.
//
// The parallel engine charges the same α–β costs as the sequential one
// (each packet carries the sender's virtual clock, reproducing netsim's
// cut-through arithmetic), so synchronization results, wire bytes and
// simulated clocks are bit-identical between engines for a fixed seed —
// only wall-clock behaviour changes.
//
// # Stateful training
//
// Run executes stateless one-shot rounds. For the paper's full
// Algorithm 1 across rounds (global compensation, the K-periodic
// full-precision schedule), use the stateful Marsit type:
//
//	sync := marsit.MustNew(marsit.Config{
//	    Workers: 8, Dim: d, K: 100, GlobalLR: 0.005,
//	})
//	gt := sync.Sync(cluster, scaledGrads)
//
// Training loops, baselines and the experiment harness live in
// internal/train and internal/experiments; the runnable entry points
// are cmd/marsit-bench, cmd/marsit-train and cmd/marsit-node, and the
// examples/ tree shows end-to-end usage.
package marsit

import (
	"fmt"

	"marsit/internal/collective/registry"
	"marsit/internal/core"
	"marsit/internal/netsim"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// Config parameterizes a Marsit instance. See core.Config for field
// semantics: Workers (M), Dim (D), K (full-precision period, 0 = never),
// GlobalLR (η_s), Torus (nil = ring), Seed.
type Config = core.Config

// Marsit executes Algorithm 1 of the paper: unbiased one-bit sign
// aggregation with global compensation and periodic full-precision
// synchronization.
type Marsit = core.Marsit

// Cluster is the simulated cluster (per-worker clocks, α–β link costs,
// phase breakdown and byte accounting).
type Cluster = netsim.Cluster

// CostModel holds the α–β simulation constants.
type CostModel = netsim.CostModel

// Vec is a flat float64 gradient/parameter vector.
type Vec = tensor.Vec

// Engine is the concurrent execution engine: one goroutine per worker,
// exchanging messages over a pluggable transport. Engine.Open prepares
// any registered collective (resolve a descriptor through
// internal/collective/registry) and the returned Collective's Run
// executes one round; ParallelFor runs shard-local work.
// Every collective reproduces the sequential engine's results, wire
// bytes and α–β virtual clocks bit for bit over both fabric backends
// (the generated matrix in internal/runtime/equivtest enforces this).
type Engine = runtime.Engine

// NewEngine starts a concurrent engine of workers goroutines connected
// by an in-process loopback transport. Close it when done.
func NewEngine(workers int) *Engine { return runtime.New(workers) }

// Transport selects the parallel engine's message fabric backend.
type Transport = core.Transport

// The fabric backends of the parallel engine.
const (
	// TransportLoopback is the in-process channel fabric (the default).
	TransportLoopback = core.TransportLoopback
	// TransportTCP exchanges every message over a real TCP socket on the
	// loopback interface; results and virtual-time accounting stay
	// bit-identical to loopback.
	TransportTCP = core.TransportTCP
	// TransportSHM exchanges every message over a cross-process
	// shared-memory ring (mmap'd SPSC frame rings, no syscalls in
	// steady state); bit-identical to loopback, co-located ranks only.
	TransportSHM = core.TransportSHM
	// TransportHybrid routes each link by a host map: shared-memory
	// rings intra-host, TCP sockets inter-host. In-process the ranks
	// split into a lower-half and an upper-half host.
	TransportHybrid = core.TransportHybrid
)

// NewEngineTCP starts a concurrent engine whose ranks exchange messages
// over real TCP sockets on the loopback interface (one connection per
// rank pair). Close it when done; the sockets are released with it.
func NewEngineTCP(workers int) (*Engine, error) {
	return core.NewParallelEngine(workers, core.TransportTCP)
}

// NewEngineSHM starts a concurrent engine whose ranks exchange messages
// over cross-process shared-memory rings rendezvoused in a temporary
// directory. Close it when done; the rings are released with it.
func NewEngineSHM(workers int) (*Engine, error) {
	return core.NewParallelEngine(workers, core.TransportSHM)
}

// EngineKind selects the execution engine Run uses.
type EngineKind string

// The execution engines.
const (
	// EngineSeq is the lock-step engine (the default; the mode the
	// paper figures use).
	EngineSeq EngineKind = "seq"
	// EnginePar is the concurrent engine: one goroutine per worker over
	// a pluggable fabric, bit-identical to EngineSeq.
	EnginePar EngineKind = "par"
)

// RunOption configures one Run invocation.
type RunOption func(*runConfig)

type runConfig struct {
	engine               EngineKind
	transport            Transport
	torusRows, torusCols int
	elias                bool
	seed                 uint64
	k                    int
	globalLR             float64
	chunks               int
	powerRank            int
	cluster              *Cluster
}

// WithEngine selects the execution engine (EngineSeq or EnginePar).
func WithEngine(e EngineKind) RunOption { return func(rc *runConfig) { rc.engine = e } }

// WithTransport selects the parallel engine's fabric backend
// (TransportLoopback, TransportTCP, TransportSHM or TransportHybrid).
// The fabric is read only under WithEngine(EnginePar); the sequential
// engine ignores it.
func WithTransport(t Transport) RunOption { return func(rc *runConfig) { rc.transport = t } }

// WithTorus lays the workers out as a rows×cols 2D torus (collectives
// with torus support).
func WithTorus(rows, cols int) RunOption {
	return func(rc *runConfig) { rc.torusRows, rc.torusCols = rows, cols }
}

// WithElias enables Elias-gamma compaction of the wire payloads
// (Elias-capable collectives).
func WithElias() RunOption { return func(rc *runConfig) { rc.elias = true } }

// WithSeed sets the seed deriving every per-rank stream the collective
// needs (stochastic compression, one-bit merge transients).
func WithSeed(s uint64) RunOption { return func(rc *runConfig) { rc.seed = s } }

// WithK sets the Marsit full-precision period (0 = one-bit forever).
func WithK(k int) RunOption { return func(rc *runConfig) { rc.k = k } }

// WithGlobalLR sets the Marsit global step η_s (default 0.01 for
// collectives that need it).
func WithGlobalLR(lr float64) RunOption { return func(rc *runConfig) { rc.globalLR = lr } }

// WithChunks splits every ring-hop payload into n pipelined frames on
// the parallel engine (chunk-capable collectives), overlapping one
// hop's merge with the next chunk's transfer. Results, wire bytes and
// simulated clocks are unaffected — the equivalence matrix pins them
// bit-identical for every chunk count — only wall-clock behaviour
// changes; the sequential engine ignores it.
func WithChunks(n int) RunOption { return func(rc *runConfig) { rc.chunks = n } }

// WithPowerRank sets the low-rank approximation rank of the PowerSGD
// collective (0 = the default rank 2). All workers share it.
func WithPowerRank(r int) RunOption { return func(rc *runConfig) { rc.powerRank = r } }

// WithCluster charges the run to an existing simulated cluster instead
// of a fresh default one — inspect it afterwards for clocks, wire bytes
// and phase breakdowns.
func WithCluster(c *Cluster) RunOption { return func(rc *runConfig) { rc.cluster = c } }

// Run executes one round of the named collective over the workers'
// gradient vectors (one per worker; collectives may mutate them in
// place) and returns the per-worker synchronized outputs. The workers of
// a consensus collective (marsit's one-bit rounds, the one-bit tree) may
// share one output vector, on either engine. The name is a
// registry name — see Collectives for discovery. Scheduling state does
// not persist across calls; use the Marsit type for stateful training.
func Run(name string, grads []Vec, opts ...RunOption) ([]Vec, error) {
	desc, err := registry.Get(name)
	if err != nil {
		return nil, err
	}
	if len(grads) == 0 {
		return nil, fmt.Errorf("marsit: no gradient vectors")
	}
	rc := runConfig{engine: EngineSeq, globalLR: 0.01}
	for _, opt := range opts {
		opt(&rc)
	}
	n, d := len(grads), len(grads[0])
	for w, g := range grads {
		if len(g) != d {
			return nil, fmt.Errorf("marsit: worker %d gradient dim %d, want %d", w, len(g), d)
		}
	}
	var tor *topology.Torus
	if rc.torusRows != 0 || rc.torusCols != 0 {
		if rc.torusRows < 1 || rc.torusCols < 1 {
			return nil, fmt.Errorf("marsit: bad torus %dx%d", rc.torusRows, rc.torusCols)
		}
		tor = topology.NewTorus(rc.torusRows, rc.torusCols)
	}
	o := &registry.Opts{
		Workers: n, Dim: d, Torus: tor, Elias: rc.elias,
		Seed: rc.seed, K: rc.k, GlobalLR: rc.globalLR, Chunks: rc.chunks,
		PowerRank: rc.powerRank,
	}
	c := rc.cluster
	if c == nil {
		c = NewCluster(n)
	} else if c.Size() != n {
		return nil, fmt.Errorf("marsit: cluster of %d workers for %d gradient vectors", c.Size(), n)
	}
	switch rc.engine {
	case EngineSeq, EnginePar, "":
	default:
		return nil, fmt.Errorf("marsit: unknown engine %q", rc.engine)
	}
	run, release, err := core.OpenCollective(desc, o, rc.engine == EnginePar, rc.transport)
	if err != nil {
		return nil, err
	}
	defer release()
	return run(c, grads), nil
}

// CollectiveInfo describes one registered collective.
type CollectiveInfo struct {
	// Name is the registry key (the value Run and the CLIs accept).
	Name string
	// Summary is the one-line description.
	Summary string
	// Topology is the base interconnect: "ring", "torus" or "ps".
	Topology string
	// Wire describes the simulated wire model.
	Wire string
	// Capability flags: Elias coding, optional torus layout, PS hub
	// family, K-periodic schedule (needs a global step).
	SupportsElias, SupportsTorus, PSFamily, NeedsK bool
}

// Collectives lists every registered collective in name order — the
// discovery half of the facade (the CLIs' -collective flags and help
// text validate against the same registry).
func Collectives() []CollectiveInfo {
	all := registry.All()
	out := make([]CollectiveInfo, 0, len(all))
	for _, d := range all {
		out = append(out, CollectiveInfo{
			Name:          d.Name,
			Summary:       d.Summary,
			Topology:      string(d.Topology),
			Wire:          d.Wire,
			SupportsElias: d.Caps.Elias,
			SupportsTorus: d.Caps.Torus || d.Topology == registry.Torus,
			PSFamily:      d.Caps.PSFamily,
			NeedsK:        d.Caps.NeedsK,
		})
	}
	return out
}

// New validates cfg and returns a fresh Marsit with zero compensation.
func New(cfg Config) (*Marsit, error) { return core.New(cfg) }

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Marsit { return core.MustNew(cfg) }

// NewCluster builds a simulated cluster of n workers with the default
// public-cloud cost model (50 µs latency, 10 Gbit/s links).
func NewCluster(n int) *Cluster {
	return netsim.NewCluster(n, netsim.DefaultCostModel())
}

// NewClusterWithModel builds a simulated cluster with a custom cost
// model.
func NewClusterWithModel(n int, m CostModel) *Cluster {
	return netsim.NewCluster(n, m)
}

// DefaultCostModel returns the default α–β constants.
func DefaultCostModel() CostModel { return netsim.DefaultCostModel() }

// NewTorus builds a rows×cols 2D-torus topology for TAR-mode Marsit.
func NewTorus(rows, cols int) *topology.Torus { return topology.NewTorus(rows, cols) }

// SquareTorus builds the most balanced torus for n workers.
func SquareTorus(n int) *topology.Torus { return topology.SquareTorus(n) }
