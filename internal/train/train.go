// Package train runs distributed data-parallel training over the
// simulated cluster, binding together the data shards, the neural
// network, the optimizer, and one of the synchronization methods the
// paper compares:
//
//	psgd        full-precision all-reduce (RAR, TAR, or PS)
//	signsgd     majority-vote signSGD (sign sums under MAR, majority at PS)
//	ef-signsgd  error-feedback signSGD (per-worker residual carrying)
//	ssdm        stochastic sign descent with bit-width expansion
//	cascading   SSDM with per-hop decompress–add–recompress (Section 3.2)
//	marsit      the paper's framework (one-bit ⊙ merge + compensation)
//
// Every method keeps all workers at consensus parameters, so one model
// instance represents the cluster; per-worker state (gradients, EF
// residuals, RNG streams) is explicit. The trainer records the metric
// series the paper's figures plot: loss, test accuracy, simulated
// seconds, megabytes on the wire, matching rate, and the per-phase time
// breakdown.
//
// Every method synchronizes through one path: Run resolves the method
// to a registry descriptor (psgd, cascading and raw collectives map to
// theirs one-to-one; the sign-vote family — signsgd, ef-signsgd, ssdm —
// is runtime.SignVote around the topology's exchange collective) and
// opens it once, on the engine Config.Engine names, through
// core.OpenCollective: the single-threaded lock-step leg, or the
// concurrent engine of internal/runtime with one goroutine per worker.
// marsit runs the stateful core.Marsit, whose Parallel form opens its
// per-rank legs through the same helper. Both engines produce
// bit-identical metric series; see EngineSeq and EnginePar.
package train

import (
	"fmt"
	"math"

	"marsit/internal/collective/registry"
	"marsit/internal/core"
	"marsit/internal/data"
	"marsit/internal/netsim"
	"marsit/internal/nn"
	"marsit/internal/optim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// Method selects the synchronization scheme: one of the paper's six
// methods below, or the name of any registered collective
// (registry.Names) — a raw-collective method synchronizes the cloned
// gradients through that schedule each round, exactly how psgd and
// cascading are implemented.
type Method string

// The synchronization methods of the paper's evaluation.
const (
	MethodPSGD      Method = "psgd"
	MethodSignSGD   Method = "signsgd"
	MethodEFSignSGD Method = "ef-signsgd"
	MethodSSDM      Method = "ssdm"
	MethodCascading Method = "cascading"
	MethodMarsit    Method = "marsit"
)

// Engine selects the execution engine the collectives run on.
type Engine string

// The execution engines.
const (
	// EngineSeq is the single-threaded lock-step engine: collectives
	// mutate all workers' vectors in one loop over the netsim substrate.
	// Deterministic virtual time; the mode the paper figures use.
	EngineSeq Engine = "seq"
	// EnginePar is the concurrent engine (internal/runtime): one
	// goroutine per worker exchanging messages over a pluggable
	// transport (loopback or TCP). Every method runs on it —
	// full-precision RAR/TAR and the PS push–pull (psgd), the sign-sum
	// transports with bit-width expansion ± Elias (signsgd, ef-signsgd,
	// ssdm, including their PS hub forms), cascading SSDM, and the
	// Marsit one-bit path — with bit-identical results and α–β
	// accounting to the sequential engine.
	EnginePar Engine = "par"
)

// DefaultEngine is used when Config.Engine is empty; cmd/marsit-bench's
// -engine flag sets it process-wide.
var DefaultEngine = EngineSeq

// Transport selects the parallel engine's message fabric; see
// core.Transport. It only matters under EnginePar.
type Transport = core.Transport

// The fabric backends, re-exported for configuration convenience.
const (
	// TransportLoopback is the in-process channel fabric (default).
	TransportLoopback = core.TransportLoopback
	// TransportTCP runs every rank pair over a real TCP socket on the
	// loopback interface.
	TransportTCP = core.TransportTCP
	// TransportSHM runs every rank pair over a cross-process
	// shared-memory ring.
	TransportSHM = core.TransportSHM
	// TransportHybrid splits links by host: shared memory intra-host,
	// TCP inter-host.
	TransportHybrid = core.TransportHybrid
)

// DefaultTransport is used when Config.Transport is empty;
// cmd/marsit-bench's -transport flag sets it process-wide.
var DefaultTransport = TransportLoopback

// Topo selects the interconnect.
type Topo string

// Supported interconnects.
const (
	TopoRing  Topo = "ring"  // RAR
	TopoTorus Topo = "torus" // TAR
	TopoPS    Topo = "ps"    // parameter server (star)
)

// Config parameterizes one training run.
type Config struct {
	Method Method
	Topo   Topo
	// Engine selects the execution engine ("" ⇒ DefaultEngine). See
	// EngineSeq and EnginePar for semantics and fallback rules.
	Engine Engine
	// Transport selects the parallel engine's fabric backend
	// ("" ⇒ DefaultTransport); ignored under EngineSeq.
	Transport Transport
	// Workers is the cluster size M.
	Workers int
	// Rounds is the number of synchronizations T.
	Rounds int
	// Batch is the per-worker batch size.
	Batch int
	// LocalLR is η_l (the optimizer learning rate for baselines).
	LocalLR float64
	// GlobalLR is η_s, the Marsit global step size.
	GlobalLR float64
	// K is Marsit's full-precision period (0 ⇒ never, the paper's
	// "Marsit"; 100 ⇒ "Marsit-100").
	K int
	// Optimizer is "sgd", "momentum" or "adam".
	Optimizer string
	// DecayAtFullSync multiplies the learning rate by 0.1 at every
	// full-precision synchronization after the first (the paper's
	// schedule for image tasks).
	DecayAtFullSync bool
	// UseElias enables Elias-gamma compaction for sign-sum transports.
	UseElias bool
	// MarsitNoCompensation disables Marsit's global compensation
	// (ablation study).
	MarsitNoCompensation bool
	// EvalEvery is the round interval between test evaluations
	// (0 ⇒ only at the end).
	EvalEvery int
	// EvalSamples caps the number of test samples per evaluation
	// (0 ⇒ all).
	EvalSamples int
	// Seed drives every stochastic component of the run.
	Seed uint64
	// Model constructs the network (called once).
	Model func(r *rng.PCG) *nn.Network
	// Train and Test are the sharded corpus and held-out split.
	Train, Test *data.Dataset
	// Cost overrides the default netsim cost model when non-nil.
	Cost *netsim.CostModel
}

// Point is one recorded round of a run.
type Point struct {
	// Round is the synchronization index t (1-based at recording time).
	Round int
	// Epoch is the fractional data epoch completed.
	Epoch float64
	// Loss is the mean training loss across workers this round.
	Loss float64
	// TestAcc is the test accuracy, or NaN when not evaluated.
	TestAcc float64
	// SimTime is the cumulative simulated seconds.
	SimTime float64
	// MB is the cumulative wire traffic in megabytes.
	MB float64
	// MatchRate is the sign agreement between the synchronized update
	// and the true mean gradient.
	MatchRate float64
}

// Result summarizes a run.
type Result struct {
	Config    Config
	Points    []Point
	FinalAcc  float64
	BestAcc   float64
	TotalTime float64
	TotalMB   float64
	// Breakdown is the mean per-worker phase split over the whole run.
	Breakdown netsim.Breakdown
	// Diverged reports early termination on a non-finite loss.
	Diverged bool
	// DivergedAt is the round of divergence (0 if none).
	DivergedAt int
	// Params is the model dimension D.
	Params int
}

// MethodNames lists the methods in the paper's presentation order.
func MethodNames() []Method {
	return []Method{MethodPSGD, MethodSignSGD, MethodEFSignSGD, MethodSSDM, MethodCascading, MethodMarsit}
}

// CollectiveFor maps a paper method and topology to the registry
// collective that carries its exchange — the single source the trainer
// dispatches and validates from (and the conformance tests audit).
// psgd, cascading and signsgd are their collectives one-to-one;
// ef-signsgd and ssdm re-compress around signsgd's (methodDescriptor).
func CollectiveFor(m Method, t Topo) (string, bool) {
	if t == "" {
		t = TopoRing
	}
	switch m {
	case MethodPSGD:
		switch t {
		case TopoRing:
			return "rar", true
		case TopoTorus:
			return "tar", true
		case TopoPS:
			return "ps", true
		}
	case MethodSignSGD, MethodEFSignSGD, MethodSSDM:
		switch t {
		case TopoRing, TopoTorus:
			return "signsum", true
		case TopoPS:
			return "ps-scaledsign", true
		}
	case MethodCascading:
		if t == TopoRing {
			return "cascading", true
		}
	case MethodMarsit:
		switch t {
		case TopoRing, TopoTorus:
			return "marsit", true
		}
	default:
		// A raw registry method is its own collective on any topology
		// its descriptor supports (validated at resolution time).
		if _, err := registry.Get(string(m)); err == nil {
			return string(m), true
		}
	}
	return "", false
}

// MethodHelp renders the -method flag help: the paper methods plus the
// registered collective names.
func MethodHelp() string {
	names := ""
	for i, m := range MethodNames() {
		if i > 0 {
			names += " | "
		}
		names += string(m)
	}
	return names + ", or a raw collective: " + registry.FlagHelp()
}

// methodDescriptor resolves a validated non-marsit method to the
// descriptor Run opens: the registered collective of CollectiveFor, with
// runtime.SignVote re-building it around their own compression for the
// two sign-vote methods that are not plain signSGD.
func methodDescriptor(m Method, t Topo) (*registry.Descriptor, error) {
	name, _ := CollectiveFor(m, t)
	desc, err := registry.Get(name)
	if err != nil || (m != MethodEFSignSGD && m != MethodSSDM) {
		return desc, err
	}
	vote := runtime.SignVote(*desc, m == MethodSSDM, m == MethodEFSignSGD)
	return &vote, nil
}

func (cfg *Config) validate() error {
	if cfg.Workers < 1 {
		return fmt.Errorf("train: Workers = %d", cfg.Workers)
	}
	if cfg.Rounds < 1 {
		return fmt.Errorf("train: Rounds = %d", cfg.Rounds)
	}
	if cfg.Batch < 1 {
		return fmt.Errorf("train: Batch = %d", cfg.Batch)
	}
	if cfg.LocalLR <= 0 {
		return fmt.Errorf("train: LocalLR = %v", cfg.LocalLR)
	}
	if cfg.Model == nil || cfg.Train == nil || cfg.Test == nil {
		return fmt.Errorf("train: Model/Train/Test must be set")
	}
	if cfg.Train.Len() < cfg.Workers {
		return fmt.Errorf("train: %d samples for %d workers", cfg.Train.Len(), cfg.Workers)
	}
	switch cfg.Topo {
	case TopoRing, TopoTorus, TopoPS:
	case "":
		cfg.Topo = TopoRing
	default:
		return fmt.Errorf("train: unknown topology %q", cfg.Topo)
	}
	switch cfg.Method {
	case MethodPSGD, MethodSignSGD, MethodEFSignSGD, MethodSSDM, MethodCascading, MethodMarsit:
		if _, ok := CollectiveFor(cfg.Method, cfg.Topo); !ok {
			if cfg.Method == MethodCascading {
				return fmt.Errorf("train: cascading is defined on the ring only")
			}
			return fmt.Errorf("train: marsit is a MAR method (ring or torus)")
		}
	default:
		// A raw registry collective run as a method: validate the name
		// and the topology hint against the descriptor's capabilities.
		desc, err := registry.Get(string(cfg.Method))
		if err != nil {
			return fmt.Errorf("train: unknown method %q (want %s)", cfg.Method, MethodHelp())
		}
		if cfg.Topo == TopoPS && desc.Topology != registry.PS {
			return fmt.Errorf("train: collective %q is not a PS schedule", cfg.Method)
		}
		if cfg.Topo == TopoTorus && desc.Topology != registry.Torus && !desc.Caps.Torus {
			return fmt.Errorf("train: collective %q does not support a torus", cfg.Method)
		}
		if desc.Caps.NeedsK && cfg.GlobalLR <= 0 {
			return fmt.Errorf("train: collective %q needs GlobalLR > 0", cfg.Method)
		}
	}
	if cfg.Method == MethodMarsit && cfg.GlobalLR <= 0 {
		return fmt.Errorf("train: marsit needs GlobalLR > 0")
	}
	switch cfg.Engine {
	case EngineSeq, EnginePar:
	case "":
		cfg.Engine = DefaultEngine
		if cfg.Engine != EngineSeq && cfg.Engine != EnginePar {
			return fmt.Errorf("train: unknown DefaultEngine %q", DefaultEngine)
		}
	default:
		return fmt.Errorf("train: unknown engine %q", cfg.Engine)
	}
	validTransport := func(t Transport) bool {
		switch t {
		case TransportLoopback, TransportTCP, TransportSHM, TransportHybrid:
			return true
		}
		return false
	}
	switch {
	case validTransport(cfg.Transport):
	case cfg.Transport == "":
		cfg.Transport = DefaultTransport
		if !validTransport(cfg.Transport) {
			return fmt.Errorf("train: unknown DefaultTransport %q", DefaultTransport)
		}
	default:
		return fmt.Errorf("train: unknown transport %q", cfg.Transport)
	}
	if cfg.Optimizer == "" {
		cfg.Optimizer = "sgd"
	}
	return nil
}

// Run executes the configured training and returns its metric series.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := rng.NewStream(cfg.Seed, 0x7a11)
	model := cfg.Model(root.Split(1))
	d := model.NumParams()

	costModel := netsim.DefaultCostModel()
	if cfg.Cost != nil {
		costModel = *cfg.Cost
	}
	cluster := netsim.NewCluster(cfg.Workers, costModel)

	shards := cfg.Train.Shard(cfg.Workers)
	batchRNGs := make([]*rng.PCG, cfg.Workers)
	ssdmRNGs := make([]*rng.PCG, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		batchRNGs[w] = rng.NewStream(cfg.Seed, 0xb000+uint64(w))
		ssdmRNGs[w] = rng.NewStream(cfg.Seed, 0xc000+uint64(w))
	}

	var tor *topology.Torus
	if cfg.Topo == TopoTorus {
		tor = topology.SquareTorus(cfg.Workers)
	}

	// Optimizer: Marsit's g_t already carries its step sizes, so its
	// optimizer runs at lr = 1; baselines consume the raw mean gradient
	// at lr = LocalLR.
	optLR := cfg.LocalLR
	if cfg.Method == MethodMarsit {
		optLR = 1
	}
	opt, err := optim.ByName(cfg.Optimizer, optLR, d)
	if err != nil {
		return nil, err
	}

	// One synchronizer for the whole run, opened up front so per-round
	// state (compensation, SSDM streams, EF residuals) carries across
	// rounds: it consumes the round's gradients — they are dead after it
	// (trueMean is taken first, and every vector is zeroed at the top of
	// the next round), so a synchronizer may scale or reduce them in
	// place and may return one of them as the update every worker
	// applies. fullSyncNext reports a Marsit full-precision round ahead
	// (the learning-rate schedule).
	parallel := cfg.Engine == EnginePar
	var sync func(grads []tensor.Vec) tensor.Vec
	fullSyncNext := func() bool { return false }
	if cfg.Method == MethodMarsit {
		marsit, err := core.New(core.Config{
			Workers:             cfg.Workers,
			Dim:                 d,
			K:                   cfg.K,
			GlobalLR:            cfg.GlobalLR,
			Torus:               tor,
			Seed:                cfg.Seed ^ 0x3a55,
			DisableCompensation: cfg.MarsitNoCompensation,
			Parallel:            parallel,
			Transport:           cfg.Transport,
		})
		if err != nil {
			return nil, err
		}
		defer marsit.Close()
		fullSyncNext = marsit.FullPrecisionNext
		sync = func(scaled []tensor.Vec) tensor.Vec {
			for _, g := range scaled {
				tensor.Scale(g, cfg.LocalLR)
			}
			return marsit.Sync(cluster, scaled)
		}
	} else {
		desc, err := methodDescriptor(cfg.Method, cfg.Topo)
		if err != nil {
			return nil, err
		}
		o := &registry.Opts{
			Workers: cfg.Workers, Dim: d, Seed: cfg.Seed,
			K: cfg.K, GlobalLR: cfg.GlobalLR, Torus: tor, Streams: ssdmRNGs,
			// Elias applies only where the descriptor supports it, the
			// trainer's historical leniency for full-precision methods.
			Elias: cfg.UseElias && desc.Caps.Elias,
		}
		run, release, err := core.OpenCollective(desc, o, parallel, cfg.Transport)
		if err != nil {
			return nil, err
		}
		defer release()
		sync = func(work []tensor.Vec) tensor.Vec { return run(cluster, work)[0] }
	}

	res := &Result{Config: cfg, Params: d}
	grads := make([]tensor.Vec, cfg.Workers)
	for w := range grads {
		grads[w] = tensor.New(d)
	}
	trueMean := tensor.New(d)
	flopsPerRound := 3 * float64(model.Flops()) * float64(cfg.Batch)
	samplesPerRound := cfg.Workers * cfg.Batch

	evalAcc := func() float64 {
		test := cfg.Test
		if cfg.EvalSamples > 0 && test.Len() > cfg.EvalSamples {
			sub := &data.Dataset{Name: test.Name, X: test.X[:cfg.EvalSamples], Y: test.Y[:cfg.EvalSamples], Classes: test.Classes}
			test = sub
		}
		return test.Accuracy(model.Predict)
	}

	losses := make([]float64, cfg.Batch)
	for round := 0; round < cfg.Rounds; round++ {
		// Local gradient computation on each worker's shard.
		roundLoss := 0.0
		for w := 0; w < cfg.Workers; w++ {
			tensor.Zero(grads[w])
			xs, ys := shards[w].Batch(batchRNGs[w], cfg.Batch)
			model.LossGradBatch(xs, ys, grads[w], losses)
			for _, l := range losses {
				roundLoss += l
			}
			tensor.Scale(grads[w], 1/float64(cfg.Batch))
			cluster.AddComputeFlops(w, flopsPerRound)
		}
		roundLoss /= float64(samplesPerRound)

		// True mean gradient, for the matching-rate metric.
		tensor.Zero(trueMean)
		for w := 0; w < cfg.Workers; w++ {
			tensor.Add(trueMean, grads[w])
		}
		tensor.Scale(trueMean, 1/float64(cfg.Workers))

		// Synchronize.
		fullSync := fullSyncNext()
		update := sync(grads)

		match := tensor.MatchRate(update, trueMean)
		opt.Step(model.Params(), update)
		if cfg.DecayAtFullSync && fullSync && round > 0 {
			opt.SetLR(opt.LR() * 0.1)
		}

		pt := Point{
			Round:     round + 1,
			Epoch:     float64((round+1)*samplesPerRound) / float64(cfg.Train.Len()),
			Loss:      roundLoss,
			TestAcc:   math.NaN(),
			SimTime:   cluster.Time(),
			MB:        float64(cluster.TotalBytes()) / 1e6,
			MatchRate: match,
		}
		if !isFinite(roundLoss) || roundLoss > 1e8 || !allFinite(model.Params()) {
			res.Diverged = true
			res.DivergedAt = round + 1
			res.Points = append(res.Points, pt)
			break
		}
		if cfg.EvalEvery > 0 && (round+1)%cfg.EvalEvery == 0 {
			pt.TestAcc = evalAcc()
			if pt.TestAcc > res.BestAcc {
				res.BestAcc = pt.TestAcc
			}
		}
		res.Points = append(res.Points, pt)
	}

	if !res.Diverged {
		res.FinalAcc = evalAcc()
		if res.FinalAcc > res.BestAcc {
			res.BestAcc = res.FinalAcc
		}
		if len(res.Points) > 0 {
			res.Points[len(res.Points)-1].TestAcc = res.FinalAcc
		}
	}
	res.TotalTime = cluster.Time()
	res.TotalMB = float64(cluster.TotalBytes()) / 1e6
	res.Breakdown = cluster.MeanBreakdown()
	return res, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func allFinite(v tensor.Vec) bool {
	for _, x := range v {
		if !isFinite(x) {
			return false
		}
	}
	return true
}
