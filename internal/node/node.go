// Package node drives one rank of a distributed Marsit fabric: it joins
// a TCP transport (internal/transport/tcp), runs the configured
// collective for a number of rounds, and — in check mode — lets rank 0
// verify the whole fabric against the sequential engine.
//
// The collective is resolved from internal/collective/registry, so a
// node runs every registered schedule — full-precision RAR/TAR, the
// one-bit Marsit ring and torus, the sign-sum transports ± Elias,
// cascading SSDM, and the PS hub family — through one generic loop: the
// descriptor's per-rank leg executes this rank's share each round, and
// its sequential leg is the replay rank 0 checks against. Registering a
// new collective makes it runnable here with no node changes.
//
// This is the engine room of cmd/marsit-node. Every process hosts
// exactly one rank; gradients are generated from deterministic per-rank
// RNG streams derived from the shared seed, so rank 0 can replay the
// entire run on the single-threaded engine and demand bit-identical
// results, wire-byte counts and α–β virtual clocks from the fabric. The
// same schedule running in-process (tests) or across machines (real
// deployments) produces the same report.
//
// Check protocol, carried over the fabric itself after the last round
// (control-plane packets with Wire = 0, so nothing is charged to the
// simulation): every rank r > 0 sends rank 0 a report frame
//
//	float64 clock | uint64 wire bytes | per-phase float64 seconds | D × float64 result
//
// (calibrate mode inserts the rank's measured per-phase wall split,
// another per-phase float64 block, between the virtual phases and the
// result) and blocks on a one-byte verdict frame (1 = fabric matches
// the sequential engine). Rank 0 additionally renders the gathered
// per-phase clock breakdowns as a Figure-5-style table
// (Summary.PhaseTable). Per-pair FIFO guarantees the report trails all
// of the rank's collective traffic. Shutdown is ordered so no verdict
// can race a teardown: each peer acks its verdict and then lingers
// until rank 0 — which closes only after collecting every ack — tears
// the fabric down.
package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"time"

	"marsit/internal/calib"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/report"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
	"marsit/internal/transport/faultwrap"
	"marsit/internal/transport/hybrid"
	"marsit/internal/transport/shm"
	"marsit/internal/transport/tcp"

	// Populate the collective registry (core also pulls in the runtime
	// registrations).
	_ "marsit/internal/core"
)

// Historical names of the first collectives a node could run, kept for
// callers that predate the registry. Any name from registry.Names() is
// accepted.
const (
	// CollectiveRAR is the full-precision ring all-reduce (PSGD-style).
	CollectiveRAR = "rar"
	// CollectiveTAR is the full-precision hierarchical 2D-torus
	// all-reduce (pair with Config.TorusRows/TorusCols, or let a square
	// torus be derived).
	CollectiveTAR = "tar"
	// CollectiveMarsit is the paper's one-bit schedule with global
	// compensation and periodic full-precision synchronization (ring,
	// or torus with Config.TorusRows/TorusCols).
	CollectiveMarsit = "marsit"
	// CollectiveSignSum is majority-vote signSGD over the sign-sum ring.
	CollectiveSignSum = "signsum"
	// CollectiveSSDM is the "SSDM (Overflow)" baseline.
	CollectiveSSDM = "ssdm"
	// CollectivePS is the full-precision parameter-server push–pull.
	CollectivePS = "ps"
)

// The fabric backends a rank can join.
const (
	// TransportTCP is one real socket per rank pair (the default).
	TransportTCP = "tcp"
	// TransportSHM is one mmap'd shared-memory ring per ordered rank
	// pair, rendezvoused through a shared directory — co-located
	// processes only.
	TransportSHM = "shm"
	// TransportHybrid routes intra-host links over shared-memory rings
	// and inter-host links over TCP, split by a host map.
	TransportHybrid = "hybrid"
)

// Config parameterizes one rank's run.
type Config struct {
	// Rank is this process's rank; Addrs[Rank] is its listen address.
	Rank int
	// Addrs lists every rank's address, defining the fabric size.
	Addrs []string
	// Collective selects the schedule by registry name ("" means
	// marsit); see registry.Names for the full set.
	Collective string
	// TorusRows and TorusCols select a 2D-torus layout for
	// torus-capable collectives (tar, marsit, signsum). Both zero means
	// the collective's default (a ring, or a square torus for tar);
	// when set, TorusRows·TorusCols must equal the fabric size and all
	// ranks must agree.
	TorusRows, TorusCols int
	// Dim is the gradient dimension D.
	Dim int
	// Rounds is the number of synchronizations.
	Rounds int
	// K is Marsit's full-precision period (0 = one-bit forever).
	K int
	// GlobalLR is Marsit's global step η_s.
	GlobalLR float64
	// Seed drives the per-rank gradient and transient streams; all ranks
	// must agree on it.
	Seed uint64
	// UseElias enables Elias-gamma compaction of the sign-sum payloads
	// (Elias-capable collectives); all ranks must agree.
	UseElias bool
	// Chunks splits every ring-hop payload into this many pipelined
	// frames (chunk-capable collectives; 0/1 = off). Wire bytes and
	// virtual clocks are invariant — the -check replay against the
	// sequential engine holds for any value — and all ranks must agree.
	Chunks int
	// PowerRank is the low-rank approximation rank of the powersgd
	// collective (0 = the collective's default rank 2); all ranks must
	// agree.
	PowerRank int
	// Check makes rank 0 verify every rank's result, clock, byte count
	// and phase breakdown against the sequential engine and broadcast
	// the verdict. Every rank of a fabric must agree on it: the check
	// protocol is a collective exchange.
	Check bool
	// Calibrate times every collective round against the α–β cost model:
	// the rank records measured wall-clock seconds per phase next to the
	// predicted virtual seconds, the report frame carries the wall split
	// to rank 0, and rank 0 renders the predicted-vs-measured table
	// (Summary.CalibTable). Implies Check; all ranks must agree on it
	// (the report frame width depends on it). Calibration error is
	// reported, never judged: only gather/format failures make a
	// calibrated run exit non-zero.
	Calibrate bool
	// Jitter, when positive, injects uniform random delay in [0, Jitter)
	// before every frame this rank sends (the faultwrap middleware over
	// the TCP fabric). Injection moves wall clock only: results, wire
	// bytes and virtual clocks stay bit-identical, so -check still holds
	// under any jitter.
	Jitter time.Duration
	// JitterSeed roots the per-destination delay streams (with Rank they
	// fully determine this rank's delay schedule).
	JitterSeed uint64
	// DieAfterRounds, when positive, makes this rank abandon the run
	// after that many rounds without any farewell — a crash-fault
	// injection hook: the rank's fabric closes abruptly and the peers'
	// blocked exchanges (including the hub actor's gathers) must fail
	// with a transport error instead of hanging.
	DieAfterRounds int
	// Transport selects the fabric backend: "tcp" (the default), "shm"
	// (cross-process shared-memory rings rendezvoused in ShmDir — the
	// whole fleet must be co-located), or "hybrid" (shared-memory rings
	// between ranks on the same host, TCP across hosts, split by
	// Hosts). All ranks must agree.
	Transport string
	// ShmDir is the shared-memory rendezvous directory ("shm" and
	// "hybrid" transports). Every co-located rank must name the same
	// directory, and it must hold no ring files from previous runs.
	ShmDir string
	// Hosts maps rank → host id for the hybrid transport. Nil derives
	// the map from the host part of each address in Addrs — right for
	// real deployments, where co-located ranks share an address — while
	// an explicit map lets single-machine fleets (every address
	// 127.0.0.1) exercise a genuine multi-host split. All ranks must
	// agree.
	Hosts []int
	// DialTimeout bounds the fabric rendezvous (0 = tcp default).
	DialTimeout time.Duration
	// Cost overrides the default netsim cost model when non-nil.
	Cost *netsim.CostModel
	// Logger receives progress as structured log records when non-nil;
	// the node tags every record with its rank. cmd/marsit-node wires a
	// text handler at Info (Debug with -v); nil is silent.
	Logger *slog.Logger

	// desc is the resolved registry descriptor (set by validate).
	desc *registry.Descriptor
	// log is Logger with the rank attribute attached (set by validate).
	log *slog.Logger
}

// Summary is one rank's view of a completed run.
type Summary struct {
	// Rank and Workers echo the fabric shape.
	Rank, Workers int
	// Clock is the rank's final simulated time, Bytes its wire bytes.
	Clock float64
	Bytes int64
	// Phases is the rank's per-phase clock breakdown.
	Phases netsim.Breakdown
	// Result is the rank's final-round synchronized update.
	Result tensor.Vec
	// Checked reports that rank 0 verified the fabric against the
	// sequential engine (set on every rank in check mode).
	Checked bool
	// PhaseTable is the Figure-5-style per-rank breakdown table rank 0
	// renders from the gathered reports in check mode ("" elsewhere).
	PhaseTable string
	// TransportTable is this rank's per-peer transport-metrics table,
	// rendered when telemetry was active for the run ("" otherwise).
	TransportTable string
	// Wall is the rank's measured wall-clock phase split in seconds
	// (calibrate mode; zero otherwise). Transmit is the summed
	// communication spans, compress the remaining in-collective work.
	Wall netsim.Breakdown
	// CalibTable is the predicted-vs-measured per-rank calibration table
	// rank 0 renders from the gathered wall splits in calibrate mode
	// ("" elsewhere).
	CalibTable string
}

func (cfg *Config) validate() error {
	n := len(cfg.Addrs)
	if n < 1 {
		return errors.New("node: no addresses")
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return fmt.Errorf("node: rank %d out of range [0,%d)", cfg.Rank, n)
	}
	if cfg.Dim < 1 {
		return fmt.Errorf("node: Dim = %d", cfg.Dim)
	}
	if cfg.Rounds < 1 {
		return fmt.Errorf("node: Rounds = %d", cfg.Rounds)
	}
	if cfg.Collective == "" {
		cfg.Collective = CollectiveMarsit
	}
	desc, err := registry.Get(cfg.Collective)
	if err != nil {
		return fmt.Errorf("node: unknown collective %q (known: %v)", cfg.Collective, registry.Names())
	}
	cfg.desc = desc
	if cfg.Calibrate {
		// Calibration rides the check gather: rank 0 needs every rank's
		// wall split, and the report frame carries it.
		cfg.Check = true
	}
	switch cfg.Transport {
	case "":
		cfg.Transport = TransportTCP
	case TransportTCP:
	case TransportSHM, TransportHybrid:
		if cfg.ShmDir == "" {
			return fmt.Errorf("node: the %s transport needs a shared-memory rendezvous dir (ShmDir / -shm-dir)", cfg.Transport)
		}
	default:
		return fmt.Errorf("node: unknown transport %q (known: tcp, shm, hybrid)", cfg.Transport)
	}
	if cfg.Hosts != nil && len(cfg.Hosts) != n {
		return fmt.Errorf("node: host map names %d ranks but the fabric has %d", len(cfg.Hosts), n)
	}
	if (cfg.TorusRows == 0) != (cfg.TorusCols == 0) {
		return fmt.Errorf("node: torus needs both rows and cols (got %dx%d)", cfg.TorusRows, cfg.TorusCols)
	}
	if cfg.TorusRows != 0 && cfg.TorusRows*cfg.TorusCols != n {
		return fmt.Errorf("node: torus %dx%d != fabric size %d", cfg.TorusRows, cfg.TorusCols, n)
	}
	// Surface descriptor/option mismatches (unsupported elias or torus,
	// missing GlobalLR) at validation time rather than mid-fabric.
	if err := registry.Prepare(desc, cfg.opts(n)); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	if cfg.Logger != nil {
		cfg.log = cfg.Logger.With("rank", cfg.Rank)
	}
	return nil
}

// opts builds the registry options every rank derives identically from
// the shared configuration.
func (cfg *Config) opts(n int) *registry.Opts {
	var tor *topology.Torus
	if cfg.TorusRows != 0 {
		tor = topology.NewTorus(cfg.TorusRows, cfg.TorusCols)
	}
	return &registry.Opts{
		Workers: n, Dim: cfg.Dim, Torus: tor, Elias: cfg.UseElias,
		Seed: cfg.Seed, K: cfg.K, GlobalLR: cfg.GlobalLR, Chunks: cfg.Chunks,
		PowerRank: cfg.PowerRank,
	}
}

func (cfg *Config) logf(format string, args ...any) {
	if cfg.log != nil {
		cfg.log.Info(fmt.Sprintf(format, args...))
	}
}

func (cfg *Config) costModel() netsim.CostModel {
	if cfg.Cost != nil {
		return *cfg.Cost
	}
	return netsim.DefaultCostModel()
}

// gradStream returns rank w's gradient stream; every rank derives all
// ranks' streams identically, so rank 0 can replay the fabric.
func gradStream(seed uint64, w int) *rng.PCG {
	return rng.NewStream(seed, 0xd000+uint64(w))
}

// fabric is the node-facing view of an assembled transport backend:
// the transport contract plus the telemetry accessor every backend
// implements.
type fabric interface {
	transport.Transport
	FabricMetrics() *obs.FabricMetrics
}

// openFabric assembles this rank's side of the configured fabric
// backend (cfg already validated). The caller owns the returned fabric
// and must Close it.
func openFabric(cfg *Config) (fabric, error) {
	n := len(cfg.Addrs)
	switch cfg.Transport {
	case TransportSHM:
		return shm.New(shm.Config{
			Dir:         cfg.ShmDir,
			Ranks:       n,
			LocalRanks:  []int{cfg.Rank},
			DialTimeout: cfg.DialTimeout,
		})
	case TransportHybrid:
		hosts := cfg.Hosts
		if hosts == nil {
			var err error
			if hosts, err = hostsFromAddrs(cfg.Addrs); err != nil {
				return nil, err
			}
		}
		var group []int
		for r, h := range hosts {
			if h == hosts[cfg.Rank] {
				group = append(group, r)
			}
		}
		local, err := shm.New(shm.Config{
			Dir:         cfg.ShmDir,
			Ranks:       n,
			LocalRanks:  []int{cfg.Rank},
			Group:       group,
			DialTimeout: cfg.DialTimeout,
		})
		if err != nil {
			return nil, err
		}
		remote, err := tcp.New(tcp.Config{
			Addrs:       cfg.Addrs,
			LocalRanks:  []int{cfg.Rank},
			DialTimeout: cfg.DialTimeout,
		})
		if err != nil {
			local.Close()
			return nil, err
		}
		f, err := hybrid.New(hybrid.Config{
			Hosts:      hosts,
			Local:      local,
			Remote:     remote,
			LocalRanks: []int{cfg.Rank},
		})
		if err != nil {
			local.Close()
			remote.Close()
			return nil, err
		}
		return f, nil
	default: // TransportTCP: validate admits nothing else
		return tcp.New(tcp.Config{
			Addrs:       cfg.Addrs,
			LocalRanks:  []int{cfg.Rank},
			DialTimeout: cfg.DialTimeout,
		})
	}
}

// hostsFromAddrs derives hybrid's default host map: ranks whose
// addresses name the same host share a host id, in first-appearance
// order.
func hostsFromAddrs(addrs []string) ([]int, error) {
	ids := make(map[string]int)
	hosts := make([]int, len(addrs))
	for r, addr := range addrs {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("node: cannot derive the host map from address %q: %w (pass -hosts explicitly)", addr, err)
		}
		id, ok := ids[host]
		if !ok {
			id = len(ids)
			ids[host] = id
		}
		hosts[r] = id
	}
	return hosts, nil
}

// Run executes this rank's share of the configured run: join the fabric,
// synchronize Rounds times, then take part in the check protocol or the
// ordered farewell. It blocks until the rank is done and returns its
// summary.
func Run(cfg Config) (*Summary, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Addrs)
	rank := cfg.Rank

	if cfg.Calibrate {
		// Activate telemetry (idempotent) and size the calibration
		// recorder before the fabric comes up, so the faultwrap counters
		// and the round timers all land on the same registry.
		obs.Enable().EnsureCalib(n)
	}

	cfg.logf("joining %d-rank %s fabric at %v", n, cfg.Transport, cfg.Addrs[rank])
	fab, err := openFabric(&cfg)
	if err != nil {
		return nil, err
	}
	defer fab.Close()
	var ep transport.Endpoint
	if cfg.Jitter > 0 {
		// Delay injection wraps the fabric but never the cost model: the
		// α–β clocks (and so the -check replay) are jitter-blind by
		// construction, only the measured wall clock moves.
		ep = faultwrap.Wrap(fab, faultwrap.Config{
			Seed:   cfg.JitterSeed,
			Jitter: cfg.Jitter,
		}).Endpoint(rank)
		cfg.logf("jitter injection armed: up to %v per send (seed %d)", cfg.Jitter, cfg.JitterSeed)
	} else {
		ep = fab.Endpoint(rank)
	}
	cfg.logf("fabric up (%d ranks)", n)

	cluster := netsim.NewCluster(n, cfg.costModel())
	result, err := runRounds(&cfg, cluster, ep)
	if err != nil {
		return nil, err
	}
	s := &Summary{
		Rank:    rank,
		Workers: n,
		Clock:   cluster.Clock(rank),
		Bytes:   cluster.BytesSent(rank),
		Phases:  cluster.PhaseBreakdown(rank),
		Result:  result,
	}
	if cfg.Calibrate {
		if rec := obs.ActiveCalib(); rec != nil {
			s.Wall = netsim.Breakdown(rec.RankWall(rank))
		}
	}
	switch {
	case !cfg.Check:
		// Even without verification the teardown must be ordered: a rank
		// closing right after its last barrier response can race a slower
		// peer still waiting for its own.
		err = orderlyShutdown(ep)
	case rank == 0:
		err = verifyFabric(&cfg, ep, s)
	default:
		err = reportAndAwaitVerdict(&cfg, ep, s)
	}
	if err != nil {
		return nil, err
	}
	s.Checked = cfg.Check
	s.TransportTable = transportTable(&cfg, fab.FabricMetrics())
	if !cfg.Check {
		cfg.logf("done: t=%.6fs wire=%dB", s.Clock, s.Bytes)
	}
	return s, nil
}

// transportTable renders this rank's per-peer transport counters when
// telemetry was active for the run ("" otherwise). Collective wire
// bytes ride the frames the rank itself posts, so for ring and torus
// schedules the WireOut column sums to the cost model's per-rank byte
// account (control-plane frames — barriers, reports, verdicts — carry
// Wire = 0 and add only frames and payload bytes).
func transportTable(cfg *Config, fm *obs.FabricMetrics) string {
	if fm == nil {
		return ""
	}
	rank, n := cfg.Rank, fm.Size()
	tb := report.NewTable(
		fmt.Sprintf("Transport metrics — rank %d of %d (%s)", rank, n, fm.Kind()),
		"Peer", "FramesOut", "FramesIn", "WireOut(B)", "WireIn(B)", "PayloadOut(B)", "PayloadIn(B)")
	for peer := 0; peer < n; peer++ {
		if peer == rank {
			continue
		}
		tb.AddRow(fmt.Sprint(peer),
			fmt.Sprint(fm.FramesSent(rank, peer)),
			fmt.Sprint(fm.FramesRecv(peer, rank)),
			fmt.Sprint(fm.WireSent(rank, peer)),
			fmt.Sprint(fm.WireRecv(peer, rank)),
			fmt.Sprint(fm.BytesSent(rank, peer)),
			fmt.Sprint(fm.BytesRecv(peer, rank)))
	}
	return tb.Render()
}

// ErrRankDied is returned by a rank whose DieAfterRounds crash-fault
// fired: it abandoned the fabric without any farewell.
var ErrRankDied = errors.New("node: simulated rank death")

// runRounds executes the configured collective for every round through
// its registry descriptor's per-rank leg and returns the final
// synchronized update, made a vector once after the last round (a one-bit
// leg's result stays bits until then). A transport failure mid-collective
// (the per-rank entry points panic when the fabric is poisoned, e.g. by a
// dead peer) is converted into an error so the caller exits non-zero
// instead of crashing or hanging.
func runRounds(cfg *Config, c *netsim.Cluster, ep transport.Endpoint) (result tensor.Vec, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("node: collective aborted: %v", r)
		}
	}()
	rank, n, d := ep.Rank(), ep.Size(), cfg.Dim
	step, err := cfg.desc.Rank(cfg.opts(n), rank)
	if err != nil {
		return nil, err
	}
	grads := gradStream(cfg.Seed, rank)

	// Telemetry: label this rank's trace timeline (we are its goroutine)
	// and count completed rounds on the active registry.
	var rounds *obs.Counter
	if reg := obs.Active(); reg != nil {
		rounds = reg.Counter("marsit_rounds_total", "rank", fmt.Sprint(rank))
		if t := reg.Tracer(); t != nil {
			t.SetLabel(rank, cfg.Collective)
		}
	}
	rec := obs.ActiveCalib()
	if rec != nil {
		rec.SetLabel(rank, cfg.Collective)
	}

	var last registry.Update
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.DieAfterRounds > 0 && round == cfg.DieAfterRounds {
			cfg.logf("simulated death after %d rounds", round)
			return nil, ErrRankDied
		}
		grad := grads.NormVec(make(tensor.Vec, d), 0, 1)
		if rec != nil {
			runtime.CalibStep(rec, c, rank, func() { last = step(c, ep, grad) })
		} else {
			last = step(c, ep, grad)
		}
		if rounds != nil {
			rounds.Inc()
		}
	}
	return last.Dense(), nil
}

// sequentialReference replays the whole run on the single-threaded
// engine through the descriptor's sequential leg and returns the
// per-rank results and the reference cluster.
func sequentialReference(cfg *Config, n int) ([]tensor.Vec, *netsim.Cluster, error) {
	d := cfg.Dim
	c := netsim.NewCluster(n, cfg.costModel())
	run, err := cfg.desc.Seq(cfg.opts(n))
	if err != nil {
		return nil, nil, err
	}
	streams := make([]*rng.PCG, n)
	for w := range streams {
		streams[w] = gradStream(cfg.Seed, w)
	}
	var results []tensor.Vec
	for round := 0; round < cfg.Rounds; round++ {
		grads := make([]tensor.Vec, n)
		for w := range grads {
			grads[w] = streams[w].NormVec(make(tensor.Vec, d), 0, 1)
		}
		results = run(c, grads)
	}
	return results, c, nil
}

// numPhases is the per-phase breakdown width of the report frame.
const numPhases = len(netsim.Breakdown{})

// reportBytes is the report frame size for dimension d. Calibrate mode
// appends the measured wall-clock phase split after the virtual one, so
// every rank of a fabric must agree on the flag.
func reportBytes(d int, calibrate bool) int {
	n := 8 + 8 + 8*numPhases + 8*d
	if calibrate {
		n += 8 * numPhases
	}
	return n
}

// encodeReport serializes a rank's clock, byte count, phase breakdown
// (plus, in calibrate mode, its wall split) and result into a pooled
// control-plane payload.
func encodeReport(s *Summary, calibrate bool) []byte {
	out := transport.GetBuffer(reportBytes(len(s.Result), calibrate))
	binary.LittleEndian.PutUint64(out[0:], math.Float64bits(s.Clock))
	binary.LittleEndian.PutUint64(out[8:], uint64(s.Bytes))
	off := 16
	for _, ph := range s.Phases {
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(ph))
		off += 8
	}
	if calibrate {
		for _, w := range s.Wall {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(w))
			off += 8
		}
	}
	for _, x := range s.Result {
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(x))
		off += 8
	}
	return out
}

// decodeReport parses a report frame (and recycles it).
func decodeReport(data []byte, d int, calibrate bool) (clock float64, bytes int64, phases, wall netsim.Breakdown, result tensor.Vec, err error) {
	if len(data) != reportBytes(d, calibrate) {
		return 0, 0, phases, wall, nil, fmt.Errorf("node: report of %d bytes, want %d", len(data), reportBytes(d, calibrate))
	}
	clock = math.Float64frombits(binary.LittleEndian.Uint64(data[0:]))
	bytes = int64(binary.LittleEndian.Uint64(data[8:]))
	off := 16
	for i := range phases {
		phases[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	if calibrate {
		for i := range wall {
			wall[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
	}
	result = tensor.New(d)
	for i := range result {
		result[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	transport.PutBuffer(data)
	return clock, bytes, phases, wall, result, nil
}

// clockTolerance absorbs the float summation-order differences the
// engine equivalence tests allow (they demand 1e-12; wire transfers of
// the same doubles cannot add more).
const clockTolerance = 1e-9

// phaseTable renders the gathered per-phase clock breakdowns as the
// Figure-5-style decomposition, one row per rank of the live fabric.
func phaseTable(cfg *Config, clocks []float64, bytes []int64, phases []netsim.Breakdown) string {
	tb := report.NewTable(
		fmt.Sprintf("Per-phase clock breakdown — %s, M=%d, D=%d, %d rounds (live fabric)",
			cfg.Collective, len(clocks), cfg.Dim, cfg.Rounds),
		"Rank", "Compute(s)", "Compress(s)", "Transmit(s)", "Total(s)", "Wire(MB)")
	for w := range clocks {
		tb.AddRow(fmt.Sprint(w),
			report.FormatFloat(phases[w].Compute()),
			report.FormatFloat(phases[w].Compress()),
			report.FormatFloat(phases[w].Transmit()),
			report.FormatFloat(clocks[w]),
			report.FormatFloat(float64(bytes[w])/1e6))
	}
	return tb.Render()
}

// verifyFabric is rank 0's check: gather every rank's report, replay the
// run sequentially, compare bit for bit, and broadcast the verdict.
func verifyFabric(cfg *Config, ep transport.Endpoint, own *Summary) error {
	n, d := ep.Size(), cfg.Dim
	clocks := make([]float64, n)
	bytes := make([]int64, n)
	phases := make([]netsim.Breakdown, n)
	walls := make([]netsim.Breakdown, n)
	results := make([]tensor.Vec, n)
	clocks[0], bytes[0], phases[0], walls[0], results[0] = own.Clock, own.Bytes, own.Phases, own.Wall, own.Result
	for from := 1; from < n; from++ {
		p, err := ep.Recv(from)
		if err != nil {
			return fmt.Errorf("node: gather report from rank %d: %w", from, err)
		}
		clocks[from], bytes[from], phases[from], walls[from], results[from], err = decodeReport(p.Data, d, cfg.Calibrate)
		if err != nil {
			return err
		}
	}
	cfg.logf("gathered %d reports, replaying sequentially", n-1)
	own.PhaseTable = phaseTable(cfg, clocks, bytes, phases)
	if cfg.Calibrate {
		// Render the gathered wall splits against the α–β predictions.
		// Calibration error never flips the verdict: the table is a
		// measurement, the check below is the correctness bar.
		own.CalibTable = calib.RankTable(
			fmt.Sprintf("Calibration — %s, M=%d, D=%d, %d rounds (measured wall vs α–β prediction)",
				cfg.Collective, n, cfg.Dim, cfg.Rounds),
			phases, walls)
	}

	refResults, refC, err := sequentialReference(cfg, n)
	verdict := err == nil
	var failure error
	if err != nil {
		failure = err
	}
	for w := 0; verdict && w < n; w++ {
		if !sameVec(results[w], refResults[w]) {
			verdict = false
			failure = fmt.Errorf("node: rank %d result differs from the sequential engine", w)
			break
		}
		if bytes[w] != refC.BytesSent(w) {
			verdict = false
			failure = fmt.Errorf("node: rank %d wire bytes %d, sequential engine %d", w, bytes[w], refC.BytesSent(w))
			break
		}
		if diff := math.Abs(clocks[w] - refC.Clock(w)); diff > clockTolerance {
			verdict = false
			failure = fmt.Errorf("node: rank %d clock %v, sequential engine %v", w, clocks[w], refC.Clock(w))
			break
		}
		ref := refC.PhaseBreakdown(w)
		for ph := range ref {
			if diff := math.Abs(phases[w][ph] - ref[ph]); diff > clockTolerance {
				verdict = false
				failure = fmt.Errorf("node: rank %d %v phase %v, sequential engine %v",
					w, netsim.Phase(ph), phases[w][ph], ref[ph])
				break
			}
		}
	}

	code := byte(0)
	if verdict {
		code = 1
	}
	for to := 1; to < n; to++ {
		buf := transport.GetBuffer(1)
		buf[0] = code
		if err := ep.Send(to, transport.Packet{Data: buf}); err != nil {
			return fmt.Errorf("node: verdict to rank %d: %w", to, err)
		}
	}
	// Collect every peer's ack before returning (and so before the fabric
	// closes): an ack proves the verdict was consumed, making the
	// shutdown order-safe regardless of scheduling.
	for from := 1; from < n; from++ {
		if _, err := ep.Recv(from); err != nil {
			return fmt.Errorf("node: verdict ack from rank %d: %w", from, err)
		}
	}
	if !verdict {
		return failure
	}
	cfg.logf("fabric matches the sequential engine: M=%d D=%d rounds=%d t=%.6fs wire=%dB",
		n, d, cfg.Rounds, refC.Time(), refC.TotalBytes())
	return nil
}

// orderlyShutdown is the non-check farewell, the check protocol's
// done → bye → ack → linger skeleton without payloads: rank 0 returns
// (and so closes) only after every peer has confirmed it is past its
// last barrier, and peers park until rank 0's teardown reaches them, so
// no in-flight frame can be poisoned away by an early exit.
func orderlyShutdown(ep transport.Endpoint) error {
	n, rank := ep.Size(), ep.Rank()
	if n < 2 {
		return nil
	}
	if rank == 0 {
		for from := 1; from < n; from++ {
			if _, err := ep.Recv(from); err != nil {
				return fmt.Errorf("node: shutdown done from rank %d: %w", from, err)
			}
		}
		for to := 1; to < n; to++ {
			if err := ep.Send(to, transport.Packet{}); err != nil {
				return fmt.Errorf("node: shutdown bye to rank %d: %w", to, err)
			}
		}
		for from := 1; from < n; from++ {
			if _, err := ep.Recv(from); err != nil {
				return fmt.Errorf("node: shutdown ack from rank %d: %w", from, err)
			}
		}
		return nil
	}
	if err := ep.Send(0, transport.Packet{}); err != nil {
		return fmt.Errorf("node: shutdown done: %w", err)
	}
	if _, err := ep.Recv(0); err != nil {
		return fmt.Errorf("node: shutdown bye: %w", err)
	}
	if err := ep.Send(0, transport.Packet{}); err != nil {
		return fmt.Errorf("node: shutdown ack: %w", err)
	}
	if _, err := ep.Recv(0); err == nil {
		return errors.New("node: unexpected frame during shutdown")
	}
	return nil
}

// sameVec reports bit-exact equality (the acceptance bar: no tolerance
// on the synchronized updates).
func sameVec(a, b tensor.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// reportAndAwaitVerdict is every other rank's check half; it parks after
// its ack until the fabric teardown reaches it, as orderlyShutdown does.
func reportAndAwaitVerdict(cfg *Config, ep transport.Endpoint, own *Summary) error {
	if err := ep.Send(0, transport.Packet{Data: encodeReport(own, cfg.Calibrate)}); err != nil {
		return fmt.Errorf("node: report to rank 0: %w", err)
	}
	p, err := ep.Recv(0)
	if err != nil {
		return fmt.Errorf("node: await verdict: %w", err)
	}
	if len(p.Data) != 1 {
		return fmt.Errorf("node: malformed verdict (%d bytes)", len(p.Data))
	}
	ok := p.Data[0] == 1
	transport.PutBuffer(p.Data)
	// Ack the verdict, then linger until rank 0 — who closes only after
	// every ack — tears the fabric down; this keeps our own teardown from
	// racing a slower peer's verdict delivery.
	ack := transport.GetBuffer(1)
	ack[0] = 0x2a
	if err := ep.Send(0, transport.Packet{Data: ack}); err != nil {
		return fmt.Errorf("node: verdict ack: %w", err)
	}
	if _, lingErr := ep.Recv(0); lingErr == nil {
		return errors.New("node: unexpected frame after verdict")
	}
	if !ok {
		return errors.New("node: rank 0 reports a mismatch with the sequential engine")
	}
	cfg.logf("verified against the sequential engine")
	return nil
}
