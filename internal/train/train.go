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
// core.OpenCollective: the lock-step leg, or the concurrent engine of
// internal/runtime with one goroutine per worker.
// marsit runs the stateful core.Marsit, whose Parallel form opens its
// per-rank legs through the same helper. Both engines produce
// bit-identical metric series; see EngineSeq and EnginePar.
//
// Under either engine a round runs on min(M, GOMAXPROCS) lanes
// (tensor.ForLanes: the caller and one goroutine per further lane,
// joined before anything reads the result): the M local steps by
// worker, the pass that sums the true mean and scales each gradient for
// the synchronizer by element range, and after the sync the tail —
// unpacking a one-bit update, the matching rate's agreement count, the
// optimizer's element-wise step and the finite check — by word-aligned
// element range. A sequential Marsit runs its own one-bit rounds on the
// same lanes (core.Marsit.SyncUpdate). A lane touches only per-worker
// state (its workers' batch streams, gradients and losses) or its own
// element range; every reduction — the round loss, the compute charges,
// the sum of the per-range integer agreement counts, the optimizer's
// once-per-step state — stays serial on the caller in worker or range
// order, so the series is bit-identical at every GOMAXPROCS.
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
	// EngineSeq is the lock-step engine: collectives mutate all
	// workers' vectors in one loop on the caller over the netsim
	// substrate. Deterministic virtual time; the mode the paper figures
	// use. The local steps and the round's tail still run on lanes, as
	// under EnginePar, and so does a Marsit one-bit round's per-worker
	// and per-segment work (see the package doc).
	EngineSeq Engine = "seq"
	// EnginePar is the concurrent engine (internal/runtime): one
	// goroutine per worker exchanging messages over a pluggable
	// transport (loopback, TCP, shared memory or the hybrid shm/TCP
	// split; see Config.Transport). Every method runs on it —
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
	workers := make([]*worker, cfg.Workers)
	grads := make([]tensor.Vec, cfg.Workers)
	ssdmRNGs := make([]*rng.PCG, cfg.Workers)
	for w := range workers {
		grads[w] = tensor.New(d)
		workers[w] = &worker{
			shard:  shards[w],
			batch:  rng.NewStream(cfg.Seed, 0xb000+uint64(w)),
			grad:   grads[w],
			losses: make([]float64, cfg.Batch),
		}
		ssdmRNGs[w] = rng.NewStream(cfg.Seed, 0xc000+uint64(w))
	}
	lanes := tensor.Lanes(cfg.Workers)

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
	// (the learning-rate schedule). Marsit's synchronizer takes η_l·g,
	// the others the mean gradient: localLR is the factor the local pass
	// applies (localScale).
	parallel := cfg.Engine == EnginePar
	var syncGrads func(grads []tensor.Vec) registry.Update
	fullSyncNext := func() bool { return false }
	localLR := 1.0
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
		localLR = cfg.LocalLR
		syncGrads = func(scaled []tensor.Vec) registry.Update { return marsit.SyncUpdate(cluster, scaled) }
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
		syncGrads = func(work []tensor.Vec) registry.Update { return registry.Update{Vec: run(cluster, work)[0]} }
	}

	res := &Result{Config: cfg, Params: d}
	trueMean, step := tensor.New(d), tensor.New(d)
	tail := newTail(lanes, d)
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

	for round := 0; round < cfg.Rounds; round++ {
		// Local gradient computation on each worker's shard, on lanes;
		// the round loss and the compute charges in worker order after
		// the join. Then the true mean gradient (for the matching-rate
		// metric) and the synchronizer's scaled gradients, on lanes by
		// element range.
		tensor.ForLanes(lanes, func(p int, _ *tensor.Barrier) {
			for w := p; w < len(workers); w += lanes {
				workers[w].local(model)
			}
		})
		roundLoss := 0.0
		for w, wk := range workers {
			for _, l := range wk.losses {
				roundLoss += l
			}
			cluster.AddComputeFlops(w, flopsPerRound)
		}
		roundLoss /= float64(samplesPerRound)
		trueMeanPass(lanes, grads, trueMean, 1/float64(cfg.Batch), localLR)

		// Synchronize. A one-bit update reaches the metric as bits and is
		// unpacked for the optimizer into the run's one step vector.
		fullSync := fullSyncNext()
		update := syncGrads(grads)
		match, finite := tail.run(update, trueMean, step, opt, model.Params())
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
		if !isFinite(roundLoss) || roundLoss > 1e8 || !finite {
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

// worker is one worker's part of a round's local phase: its data shard
// and batch stream, the gradient it fills, and its last batch's
// per-sample losses. Nothing in it is shared with another worker, so
// local steps on different lanes write disjoint memory; the model they
// all read holds no scratch, and Dataset.Batch only reads the shard.
type worker struct {
	shard  *data.Dataset
	batch  *rng.PCG
	grad   tensor.Vec
	losses []float64
}

// local is the worker's local step at the model's current parameters:
// a fresh batch of len(losses) samples, its summed gradient into grad,
// and each sample's loss into losses.
func (w *worker) local(model *nn.Network) {
	tensor.Zero(w.grad)
	xs, ys := w.shard.Batch(w.batch, len(w.losses))
	model.LossGradBatch(xs, ys, w.grad, w.losses)
}

// trueMeanPass makes the round's one pass over the workers' gradients on
// lanes: lane p takes element range p of tensor.Partition(D, lanes) and
// there zeroes trueMean, runs localScale for every worker in order, and
// scales the sum by 1/M. Every element sees the operations of the serial
// pass in the same order, so the split is bit-identical to it.
func trueMeanPass(lanes int, grads []tensor.Vec, trueMean tensor.Vec, invB, lr float64) {
	segs := tensor.Partition(len(trueMean), lanes)
	invM := 1 / float64(len(grads))
	tensor.ForLanes(lanes, func(p int, _ *tensor.Barrier) {
		lo, hi := segs[p].Lo, segs[p].Hi
		mean := trueMean[lo:hi]
		tensor.Zero(mean)
		for _, g := range grads {
			localScale(g[lo:hi], mean, invB, lr)
		}
		tensor.Scale(mean, invM)
	})
}

// localScale is the trainer's one pass over worker w's summed batch
// gradient g: s = g[i]·(1/B) is the worker's mean gradient, added into
// sum (the true mean's running sum, workers in order) and handed to the
// synchronizer in g as s·lr. Every product is the one the separate
// passes made; the multipliers are never folded into one, since
// x·(1/B·η_l) rounds differently. lr is 1 for every method but Marsit,
// and a product by 1 is exact.
func localScale(g, sum tensor.Vec, invB, lr float64) {
	sum = sum[:len(g)]
	for i, x := range g {
		s := x * invB
		sum[i] += s
		g[i] = s * lr
	}
}

// isFinite reports whether x is neither infinite nor NaN: x − x is 0 for
// every finite x and NaN for ±Inf and NaN, so one subtract and one
// compare stand in for math.IsNaN and math.IsInf.
func isFinite(x float64) bool { return x-x == 0 }

func allFinite(v tensor.Vec) bool {
	for _, x := range v {
		if !isFinite(x) {
			return false
		}
	}
	return true
}

// tail is the round's last pass, after the sync, on lanes by element
// range: lane p takes range p of tensor.PartitionAligned(D, lanes, 64),
// whose every range starts at a word of the update's bits. There it
// unpacks a one-bit update into the step vector, counts the update's sign
// agreements with the true mean, applies the optimizer's element-wise
// step and checks the new parameters for non-finite values. The counts
// are integers, so their sum is the whole vector's count exactly; the
// optimizer's once-per-step part runs once, on the caller, before the
// lanes.
type tail struct {
	segs   []tensor.Segment
	agree  []int
	finite []bool
}

func newTail(lanes, d int) *tail {
	return &tail{
		segs:   tensor.PartitionAligned(d, lanes, 64),
		agree:  make([]int, lanes),
		finite: make([]bool, lanes),
	}
}

// run applies update to params through opt and returns the update's
// matching rate against trueMean and whether every parameter is finite
// afterwards. A one-bit update is unpacked into step first.
func (t *tail) run(update registry.Update, trueMean, step tensor.Vec, opt optim.Optimizer, params tensor.Vec) (match float64, finite bool) {
	g := update.Vec
	if update.Signs != nil {
		g = step
	}
	opt.Begin()
	tensor.ForLanes(len(t.segs), func(p int, _ *tensor.Barrier) {
		lo, hi := t.segs[p].Lo, t.segs[p].Hi
		if update.Signs != nil {
			signs := update.Signs.Slice(lo, hi)
			t.agree[p] = signs.MatchCount(trueMean[lo:hi])
			signs.UnpackScaled(step[lo:hi], update.Scale)
		} else {
			t.agree[p] = tensor.MatchCount(g[lo:hi], trueMean[lo:hi])
		}
		opt.StepRange(params, g, lo, hi)
		t.finite[p] = allFinite(params[lo:hi])
	})
	agree, finite := 0, true
	for p := range t.segs {
		agree += t.agree[p]
		finite = finite && t.finite[p]
	}
	return float64(agree) / float64(len(params)), finite
}
