// Package registry is the single home of every collective the
// reproduction implements. Each algorithm registers exactly one
// Descriptor — its name, base topology, capability flags, wire model,
// and the two execution legs: a sequential runner (the single-threaded
// lock-step engine over netsim) and a per-rank runner (one rank's share
// over a transport endpoint, driven by the concurrent engine's worker
// goroutines in-process or by one process per rank across machines).
//
// Everything downstream derives from the registry instead of
// hand-maintained switches: the marsit facade's Run/Collectives, the
// generic Engine.Open dispatcher of internal/runtime, marsit-node's
// -collective flag, marsit-train's method resolution, the CLI help
// text, and the cross-engine equivalence matrix of
// internal/runtime/equivtest. Adding a collective is therefore a
// one-file change: implement the two legs and call Register once (the
// implementations of internal/runtime and internal/core do this from
// their init functions — import one of them, or anything above them,
// to populate the registry).
//
// Register panics on a malformed descriptor — a registration with a
// missing leg takes down every binary and test that links it, so an
// incomplete collective cannot ship.
package registry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"marsit/internal/bitvec"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// Topology is a collective's base interconnect.
type Topology string

// The base interconnects.
const (
	// Ring schedules run a flat logical ring over all ranks.
	Ring Topology = "ring"
	// Torus schedules require a 2D torus layout (Opts.Torus; a square
	// torus is derived from the worker count when unset).
	Torus Topology = "torus"
	// PS schedules exchange through a hub actor hosted at rank 0 — no
	// ring neighbors.
	PS Topology = "ps"
	// Tree schedules reduce up and broadcast down a complete binary tree
	// rooted at rank 0 (topology.Tree); no torus layout applies.
	Tree Topology = "tree"
)

// Caps flags what a collective supports or requires beyond its base
// topology. The CLIs and the equivalence matrix branch on these instead
// of on names.
type Caps struct {
	// Elias: the wire payloads can be Elias-gamma coded (Opts.Elias).
	Elias bool
	// Torus: a ring collective that also runs hierarchically over an
	// optional 2D torus (Opts.Torus).
	Torus bool
	// PSFamily: the schedule is served by the rank-0 hub actor.
	PSFamily bool
	// NeedsK: consumes Opts.K and Opts.GlobalLR (the Marsit period and
	// global step); GlobalLR must be positive.
	NeedsK bool
	// Streams: draws from per-rank stochastic compression streams
	// (Opts.Streams, or the canonical derivation from Opts.Seed).
	Streams bool
}

// String renders the set capability flags as a stable comma list.
func (c Caps) String() string {
	var parts []string
	if c.Elias {
		parts = append(parts, "elias")
	}
	if c.Torus {
		parts = append(parts, "torus")
	}
	if c.PSFamily {
		parts = append(parts, "ps")
	}
	if c.NeedsK {
		parts = append(parts, "k")
	}
	if c.Streams {
		parts = append(parts, "streams")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// Opts parameterizes one instantiation of a collective. The same Opts
// values must be used on every rank of a fabric (and on both legs of an
// equivalence comparison).
type Opts struct {
	// Workers is the fabric size M.
	Workers int
	// Dim is the gradient dimension D.
	Dim int
	// Torus selects the 2D layout for torus-capable collectives. Nil
	// means ring for Caps.Torus collectives and the most balanced
	// square torus for Topology == Torus collectives.
	Torus *topology.Torus
	// Elias enables Elias-gamma compaction of the wire payloads
	// (Caps.Elias collectives only).
	Elias bool
	// Seed derives every per-rank stream a collective needs (stochastic
	// compression, one-bit merge transients). All ranks must agree.
	Seed uint64
	// K is the Marsit full-precision period (0 = one-bit forever).
	K int
	// GlobalLR is the Marsit global step η_s (Caps.NeedsK collectives).
	GlobalLR float64
	// PowerRank is the low-rank approximation rank of the PowerSGD
	// collective (0 means the default rank 2). All ranks must agree.
	PowerRank int
	// Streams optionally overrides the canonical per-rank compression
	// streams (one per rank, each confined to its rank). When nil,
	// Stream derives them from Seed.
	Streams []*rng.PCG
}

// streamSalt is the canonical compression-stream derivation, shared
// with the historical marsit-node convention so existing fabrics keep
// their exact draws.
const streamSalt = 0xe000

// Stream returns rank's stochastic compression stream: Streams[rank]
// when provided, the canonical derivation from Seed otherwise.
func (o *Opts) Stream(rank int) *rng.PCG {
	if o.Streams != nil {
		return o.Streams[rank]
	}
	return rng.NewStream(o.Seed, streamSalt+uint64(rank))
}

// AllStreams returns one compression stream per rank (the sequential
// leg's view of Stream).
func (o *Opts) AllStreams() []*rng.PCG {
	out := make([]*rng.PCG, o.Workers)
	for w := range out {
		out[w] = o.Stream(w)
	}
	return out
}

// UpdateRunner executes one round of a collective over every rank:
// grads holds every rank's input gradient (runners may mutate the
// vectors in place), and the result holds every rank's output in the
// form its round produced it (Update). The ranks of a consensus may share
// one Update, bits included. It is the shape of a descriptor's sequential
// leg (NewSeq) and of a collective opened on the concurrent engine
// (runtime.Collective.Updates). Runners keep state across rounds
// (compensation vectors, compression streams), so one runner must drive
// a whole run.
type UpdateRunner func(c *netsim.Cluster, grads []tensor.Vec) []Update

// SeqRunner is an UpdateRunner whose outputs are vectors (Dense):
// Descriptor.Seq's form of the sequential leg, for callers that compare
// or keep every rank's output.
type SeqRunner func(c *netsim.Cluster, grads []tensor.Vec) []tensor.Vec

// Update is one rank's synchronized output in the form its round
// produced it. An output that is one sign per coordinate and one scalar
// — a one-bit Marsit round's consensus, a signSGD majority vote — stays
// that: Signs holds the bits (bit 1 is +Scale, bit 0 is −Scale, the IEEE
// sign flipped) and Vec is nil. Every other round's output is a vector,
// in Vec, with Signs nil.
//
// Signs is the producer's own vector (a Marsit rank's consensus or a
// signsum rank's majority, reused by its next round), so it is valid
// until the next round on the same runner; a caller that keeps the
// output longer calls Dense. It is read-only until then: a Marsit rank's
// next round still reads its consensus, subtracting η_s·signs from the
// compensation in the pass that packs the new signs. Vec is the caller's
// to keep.
type Update struct {
	Signs *bitvec.Vec
	Scale float64
	Vec   tensor.Vec
}

// Dense returns the output as a vector: Vec itself, or for a one-bit
// round a fresh vector of ±Scale written by bitvec's UnpackScaled. For
// Marsit that is bit for bit the g_t each worker's compensation was
// updated with: its compensation step subtracts the same ±Scale (the
// IEEE sign set on the same positive scale), read from the same bits.
func (u Update) Dense() tensor.Vec {
	if u.Signs == nil {
		return u.Vec
	}
	g := tensor.New(u.Signs.Len())
	u.Signs.UnpackScaled(g, u.Scale)
	return g
}

// RankRunner executes one rank's share of one round over its transport
// endpoint: grad is the rank's input gradient (may be mutated); the
// returned Update is the rank's synchronized output — a dense leg's
// vector, or the bits of a one-bit result (Marsit's consensus, the
// signsum majority), which stay the runner's until its next round. Runners returned by Descriptor.Rank keep per-rank state across
// rounds and must only be used from one goroutine.
type RankRunner func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) Update

// Vecs wraps every rank's dense output: what a sequential leg whose
// schedule reduces the vectors in place returns.
func Vecs(outs []tensor.Vec) []Update {
	ups := make([]Update, len(outs))
	for w, v := range outs {
		ups[w].Vec = v
	}
	return ups
}

// Consensus hands every one of n ranks the round's one update, bits
// included: what a sequential leg of a consensus collective returns.
func Consensus(u Update, n int) []Update {
	ups := make([]Update, n)
	for w := range ups {
		ups[w] = u
	}
	return ups
}

// Dense turns a round's per-rank outputs into vectors, the one place a
// []Update becomes them. A one-bit rank 0 is unpacked once, by
// tensor.PartitionAligned range on min(M, GOMAXPROCS) lanes, into a
// fresh vector that every rank with the same bits and the same scale
// (bit for bit) receives, exactly as a consensus hands its one g_t to
// every rank; any other rank gets its own Update.Dense. That is a
// property of the outputs, not of the collective: a dense output passes
// through untouched. Every output is the caller's to keep.
func Dense(ups []Update) []tensor.Vec {
	outs := make([]tensor.Vec, len(ups))
	u0 := ups[0]
	var shared tensor.Vec
	if u0.Signs != nil {
		shared = tensor.New(u0.Signs.Len())
		segs := tensor.PartitionAligned(len(shared), tensor.Lanes(len(ups)), 64)
		tensor.ForLanes(len(segs), func(p int, _ *tensor.Barrier) {
			lo, hi := segs[p].Lo, segs[p].Hi
			signs := u0.Signs.Slice(lo, hi)
			signs.UnpackScaled(shared[lo:hi], u0.Scale)
		})
	}
	for rank, u := range ups {
		if shared != nil && u.Signs != nil &&
			math.Float64bits(u.Scale) == math.Float64bits(u0.Scale) &&
			(u.Signs == u0.Signs || u.Signs.Equal(u0.Signs)) {
			outs[rank] = shared
			continue
		}
		outs[rank] = u.Dense()
	}
	return outs
}

// Descriptor is one registered collective.
type Descriptor struct {
	// Name is the registry key (lowercase; the CLIs' -collective value).
	Name string
	// Summary is the one-line help text.
	Summary string
	// Topology is the base interconnect.
	Topology Topology
	// Wire describes the simulated wire model per element (help text
	// and documentation; the legs implement it).
	Wire string
	// Caps flags optional capabilities and requirements.
	Caps Caps
	// EquivRounds is the number of rounds the generated equivalence
	// matrix drives the collective for (0 means 1; stateful collectives
	// set it higher to cover their round-dependent paths).
	EquivRounds int
	// NewSeq builds the sequential leg for prepared Opts.
	NewSeq func(o *Opts) (UpdateRunner, error)
	// NewRank builds rank's per-rank leg for prepared Opts.
	NewRank func(o *Opts, rank int) (RankRunner, error)
}

// Seq prepares o against the descriptor and builds the sequential
// runner, its outputs made vectors by Dense.
func (d *Descriptor) Seq(o *Opts) (SeqRunner, error) {
	if err := Prepare(d, o); err != nil {
		return nil, err
	}
	run, err := d.NewSeq(o)
	if err != nil {
		return nil, err
	}
	return func(c *netsim.Cluster, grads []tensor.Vec) []tensor.Vec { return Dense(run(c, grads)) }, nil
}

// Rank prepares o against the descriptor and builds rank's per-rank
// runner.
func (d *Descriptor) Rank(o *Opts, rank int) (RankRunner, error) {
	if err := Prepare(d, o); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= o.Workers {
		return nil, fmt.Errorf("registry: rank %d out of range [0,%d)", rank, o.Workers)
	}
	return d.NewRank(o, rank)
}

// Prepare validates o against the descriptor's topology and caps, and
// fills defaults (a square torus for torus-based collectives). It is
// idempotent; every leg constructor goes through it.
func Prepare(d *Descriptor, o *Opts) error {
	if o.Workers < 1 {
		return fmt.Errorf("registry: %s: Workers = %d, need >= 1", d.Name, o.Workers)
	}
	if o.Dim < 1 {
		return fmt.Errorf("registry: %s: Dim = %d, need >= 1", d.Name, o.Dim)
	}
	if o.Elias && !d.Caps.Elias {
		return fmt.Errorf("registry: %s does not support elias coding", d.Name)
	}
	if o.PowerRank < 0 {
		return fmt.Errorf("registry: %s: PowerRank = %d, need >= 0", d.Name, o.PowerRank)
	}
	switch d.Topology {
	case Torus:
		if o.Torus == nil {
			o.Torus = topology.SquareTorus(o.Workers)
		}
	case Ring:
		if o.Torus != nil && !d.Caps.Torus {
			return fmt.Errorf("registry: %s does not support a torus layout", d.Name)
		}
	case PS:
		if o.Torus != nil {
			return fmt.Errorf("registry: %s is a parameter-server schedule (no torus)", d.Name)
		}
	case Tree:
		if o.Torus != nil {
			return fmt.Errorf("registry: %s is a tree schedule (no torus)", d.Name)
		}
	}
	if o.Torus != nil && o.Torus.Size() != o.Workers {
		return fmt.Errorf("registry: %s: torus size %d != workers %d", d.Name, o.Torus.Size(), o.Workers)
	}
	if d.Caps.NeedsK && o.GlobalLR <= 0 {
		return fmt.Errorf("registry: %s needs GlobalLR > 0, got %v", d.Name, o.GlobalLR)
	}
	if o.Streams != nil && len(o.Streams) != o.Workers {
		return fmt.Errorf("registry: %s: %d streams for %d workers", d.Name, len(o.Streams), o.Workers)
	}
	return nil
}

var (
	mu    sync.RWMutex
	descs = map[string]*Descriptor{}
)

// Register adds d to the registry. It panics on a duplicate name or a
// malformed descriptor (missing leg, empty metadata), so a bad
// registration fails every build that links it.
func Register(d Descriptor) {
	if d.Name == "" || d.Name != strings.ToLower(d.Name) || strings.ContainsAny(d.Name, " \t\n") {
		panic(fmt.Sprintf("registry: invalid collective name %q", d.Name))
	}
	if d.Summary == "" {
		panic(fmt.Sprintf("registry: %s: missing Summary", d.Name))
	}
	if d.Wire == "" {
		panic(fmt.Sprintf("registry: %s: missing Wire model", d.Name))
	}
	switch d.Topology {
	case Ring, Torus, PS, Tree:
	default:
		panic(fmt.Sprintf("registry: %s: invalid topology %q", d.Name, d.Topology))
	}
	if d.NewSeq == nil {
		panic(fmt.Sprintf("registry: %s: missing sequential leg", d.Name))
	}
	if d.NewRank == nil {
		panic(fmt.Sprintf("registry: %s: missing per-rank leg", d.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := descs[d.Name]; dup {
		panic(fmt.Sprintf("registry: duplicate collective %q", d.Name))
	}
	descs[d.Name] = &d
}

// Get returns the named descriptor, or an error listing the known
// names.
func Get(name string) (*Descriptor, error) {
	mu.RLock()
	defer mu.RUnlock()
	d, ok := descs[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown collective %q (known: %s)",
			name, strings.Join(namesLocked(), ", "))
	}
	return d, nil
}

// Names returns the registered collective names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(descs))
	for name := range descs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered descriptors in name order.
func All() []*Descriptor {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]*Descriptor, 0, len(descs))
	for _, name := range namesLocked() {
		out = append(out, descs[name])
	}
	return out
}

// FlagHelp renders the -collective flag help: the sorted names joined
// with " | ".
func FlagHelp() string {
	return strings.Join(Names(), " | ")
}

// FormatList renders the discovery listing the CLIs print (and the
// golden file in docs/ pins): one line per collective with name,
// topology, caps, wire model and summary, aligned and sorted.
func FormatList() string {
	all := All()
	nameW, topoW, capsW, wireW := 0, 0, 0, 0
	for _, d := range all {
		nameW = max(nameW, len(d.Name))
		topoW = max(topoW, len(string(d.Topology)))
		capsW = max(capsW, len(d.Caps.String()))
		wireW = max(wireW, len(d.Wire))
	}
	var b strings.Builder
	for _, d := range all {
		fmt.Fprintf(&b, "%-*s  %-*s  %-*s  %-*s  %s\n",
			nameW, d.Name, topoW, d.Topology, capsW, d.Caps.String(), wireW, d.Wire, d.Summary)
	}
	return b.String()
}
