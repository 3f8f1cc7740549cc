// Package core implements Marsit, the paper's contribution: a learning
// synchronization framework that keeps every multi-hop all-reduce
// transmission at exactly one bit per gradient element.
//
// The three mechanisms of Section 4:
//
//  1. Unbiased sign aggregation — the bit-wise operator
//     v ⊙ v* = (v AND v*) OR ((v XOR v*) AND t), where the transient
//     vector t is drawn from the Bernoulli distribution of Eq. (2), a
//     word of 64 elements at a time inside the merge.
//     MergeSigns implements the weighted generalization: merging
//     aggregates covering a and b workers resolves each disagreeing bit
//     toward the local side with probability b/(a+b), so the merged bit
//     is 1 with probability (#positive workers)/(a+b) by induction. The
//     paper's rule is the case b = 1; the generalization is what the
//     hierarchical 2D-torus reduction needs.
//  2. Global compensation — every worker applies the identical
//     compensation c_{t+1} = u_t − g_t (its scaled-gradient-plus-carry
//     minus the global update), justified by i.i.d. cloud sharding.
//  3. Periodic full-precision synchronization every K rounds, which
//     resets the compensation and bounds error accumulation
//     (Theorem 1's K(K+1)/T term).
//
// Algorithm 1's arithmetic is stated once, in RankSync: one worker's
// compensation vector, packed signs, transient stream and round counter,
// and lines 1 and 9–13 around them (u = η_l·g + c, g_t = η_s·signs,
// c ← u − g_t, the K-periodic full-precision reset). What each engine
// states for itself is only the schedule of the synchronization in
// between. Marsit.SyncUpdate runs lines 4–8 for all workers of a simulated
// cluster in lock step — the form the paper's figures use, and the
// oracle the equivalence tests compare merge order, draw order, bytes
// and clocks against. A one-bit round's arithmetic runs on
// min(M, GOMAXPROCS) lanes (tensor.ForLanes), each step split where it
// touches disjoint state — a worker's packing and compensation, one
// segment's merge in a ring step, a member's write-back — and every
// clock charge and exchange follows on the caller in schedule order, so
// it is bit-identical at every GOMAXPROCS. RankSync.Sync runs one rank's
// share over a transport endpoint, on the concurrent engine's worker
// goroutines in-process and in one marsit-node process per rank across
// machines. A Marsit holds one RankSync per worker either way;
// Config.Parallel only chooses which of the two schedules drives them.
// Both charge wire bytes and simulated time to the netsim substrate
// identically; because compression and reception overlap by design
// (Section 4.1.1), a one-bit round charges only the initial sign packing
// and the final unpacking as compression time.
//
// A one-bit round's global update is D bits and one scalar, ±η_s, and
// both schedules return it as that (registry.Update): the compensation
// subtracts ±η_s straight from the consensus bits, and a caller such as
// the trainer reads its metric from them and unpacks them into a vector
// of its own for the optimizer step; RankSync.Sync hands its bits to the
// engine's dispatcher, which unpacks one vector per consensus for all
// ranks. The bits are the synchronizer's own and are valid only until
// its next round. Sync is SyncUpdate followed by Update.Dense, one fresh
// vector of ±η_s per round, bit-equal to the values the compensation
// subtracted.
package core

import (
	"fmt"

	"marsit/internal/bitvec"
	"marsit/internal/collective"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport/hybrid"
	"marsit/internal/transport/shm"
	"marsit/internal/transport/tcp"
)

// Transport selects the message fabric of the parallel engine.
type Transport string

// The parallel engine's fabric backends.
const (
	// TransportLoopback is the in-process fabric: n² buffered channels,
	// zero-copy payloads. The default.
	TransportLoopback Transport = "loopback"
	// TransportTCP runs every rank pair over a real TCP socket on the
	// loopback interface — the wire backend of internal/transport/tcp,
	// exercised in-process. Results and α–β accounting are identical to
	// loopback; only wall-clock behaviour (syscalls, copies) changes.
	TransportTCP Transport = "tcp"
	// TransportSHM runs every rank pair over a cross-process
	// shared-memory ring (internal/transport/shm): mmap'd SPSC frame
	// rings, two memcpys and zero syscalls per hop in steady state.
	TransportSHM Transport = "shm"
	// TransportHybrid splits links by a host map — shared-memory rings
	// intra-host, TCP sockets inter-host (internal/transport/hybrid).
	// In-process the ranks split into two hosts, lower and upper half.
	TransportHybrid Transport = "hybrid"
)

// NewParallelEngine starts a concurrent execution engine of workers
// ranks over the selected fabric backend ("" means loopback). The engine
// owns the fabric; Close releases both.
func NewParallelEngine(workers int, kind Transport) (*runtime.Engine, error) {
	switch kind {
	case "", TransportLoopback:
		return runtime.New(workers), nil
	case TransportTCP:
		f, err := tcp.NewLocal(workers)
		if err != nil {
			return nil, fmt.Errorf("core: tcp fabric: %w", err)
		}
		return runtime.NewWithOwnedTransport(f), nil
	case TransportSHM:
		f, err := shm.NewLocal(workers)
		if err != nil {
			return nil, fmt.Errorf("core: shm fabric: %w", err)
		}
		return runtime.NewWithOwnedTransport(f), nil
	case TransportHybrid:
		f, err := hybrid.NewLocal(workers)
		if err != nil {
			return nil, fmt.Errorf("core: hybrid fabric: %w", err)
		}
		return runtime.NewWithOwnedTransport(f), nil
	default:
		return nil, fmt.Errorf("core: unknown transport %q", kind)
	}
}

// OpenCollective builds the runner of a collective on the chosen
// execution engine — the one place marsit.Run, train.Run and a Parallel
// Marsit pick between the two. Sequentially that is desc's lock-step
// leg. In parallel it is a concurrent engine over the fabric kind with
// desc opened on it, one per-rank runner per worker goroutine, whose
// Run has the sequential runner's shape. Either way one runner drives a
// whole multi-round job, and release frees what it holds (nothing,
// sequentially). Either way the ranks of a consensus collective may share
// one output vector: the sequential leg hands its one g_t to every rank,
// and the parallel dispatcher unpacks one vector per distinct one-bit
// result (runtime.Collective.Run).
func OpenCollective(desc *registry.Descriptor, o *registry.Opts, parallel bool, kind Transport) (run registry.SeqRunner, release func() error, err error) {
	if !parallel {
		run, err = desc.Seq(o)
		return run, func() error { return nil }, err
	}
	eng, err := NewParallelEngine(o.Workers, kind)
	if err != nil {
		return nil, nil, err
	}
	cl, err := eng.Open(desc, o)
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	return cl.Run, eng.Close, nil
}

// MergeSigns merges two one-bit sign aggregates in place: agg covers
// aWeight workers, local covers bWeight workers. Bits that agree pass
// through; each disagreeing bit resolves to the local bit with
// probability bWeight/(aWeight+bWeight), drawn from r via the transient
// vector of Eq. (2): element i's draw sits at stream position i, agreeing
// bits included, so r always ends Len draws on — but only the disagreeing
// lanes are evaluated (by jump-ahead inside the merge loop, 64 lanes a
// word), and the transient itself is never stored. After the call agg is
// an unbiased one-bit estimate of the sign average over all
// aWeight+bWeight workers.
func MergeSigns(agg, local *bitvec.Vec, aWeight, bWeight int, r *rng.PCG) {
	if aWeight <= 0 || bWeight <= 0 {
		panic("core: MergeSigns needs positive weights")
	}
	if agg.Len() != local.Len() {
		panic(fmt.Sprintf("core: MergeSigns length mismatch %d != %d", agg.Len(), local.Len()))
	}
	total := float64(aWeight + bWeight)
	tLocal1 := rng.BernoulliThreshold(float64(bWeight) / total) // local bit 1 → transient 1 w.p. b/(a+b)
	tLocal0 := rng.BernoulliThreshold(float64(aWeight) / total) // local bit 0 → transient 1 w.p. a/(a+b)
	agg.MergeBernoulli(local, r, tLocal0, tLocal1)
}

// Config parameterizes a Marsit instance.
type Config struct {
	// Workers is the number of participating workers M.
	Workers int
	// Dim is the gradient dimension D.
	Dim int
	// K is the full-precision synchronization period: rounds t with
	// t mod K == 0 run at full precision (so K = 1 degenerates to
	// PSGD). K <= 0 means one-bit forever (the paper's "Marsit", K=∞).
	K int
	// GlobalLR is the global step size η_s applied to the consensus
	// sign vector of a one-bit round.
	GlobalLR float64
	// Torus selects 2D-torus all-reduce (TAR) when non-nil; otherwise
	// ring all-reduce (RAR) is used. Its size must equal Workers.
	Torus *topology.Torus
	// Seed derives the per-worker Bernoulli streams. Workers draw the
	// shared transient decisions deterministically from it.
	Seed uint64
	// DisableCompensation turns off the global compensation mechanism
	// (ablation study; not part of the paper's algorithm). The sign
	// aggregation still runs, but c_t stays zero.
	DisableCompensation bool
	// Parallel selects the concurrent execution engine
	// (internal/runtime): every Sync runs one RankSync per worker on its
	// own goroutine, exchanging messages over a pluggable transport,
	// instead of the lock-step loop. Results, wire bytes and simulated
	// clocks are bit-identical to the sequential path for a fixed Seed.
	// Call Close when the instance is no longer needed to release the
	// worker goroutines.
	Parallel bool
	// Transport selects the parallel engine's fabric backend
	// (TransportLoopback, TransportTCP, TransportSHM or
	// TransportHybrid; "" means loopback). Ignored unless Parallel is
	// set.
	Transport Transport
}

// validate checks the fields every form of the algorithm shares.
func (cfg Config) validate() error {
	if cfg.Workers < 1 {
		return fmt.Errorf("core: Workers = %d, need >= 1", cfg.Workers)
	}
	if cfg.Dim < 1 {
		return fmt.Errorf("core: Dim = %d, need >= 1", cfg.Dim)
	}
	if cfg.GlobalLR <= 0 {
		return fmt.Errorf("core: GlobalLR = %v, need > 0", cfg.GlobalLR)
	}
	if cfg.Torus != nil && cfg.Torus.Size() != cfg.Workers {
		return fmt.Errorf("core: torus size %d != workers %d", cfg.Torus.Size(), cfg.Workers)
	}
	return nil
}

// fullPrecision reports whether round t runs at full precision
// (Algorithm 1's mod(t, K) == 0 branch).
func (cfg Config) fullPrecision(t int) bool {
	return cfg.K > 0 && t%cfg.K == 0
}

// Marsit holds Algorithm 1's state for every worker of a cluster —
// ranks[w] is worker w's RankSync, the only representation there is —
// and executes one synchronization per Sync call.
//
// Sequentially, SyncUpdate drives the workers in lock step from the
// calling goroutine: begin on each, internal/collective's full-precision
// all-reduce and endFull on each, or a one-bit round on lanes (open, the
// rings of phases, compensate) followed by its charges. A Parallel
// instance drives each ranks[w].Sync on its own goroutine of the engine
// that release frees, through run; run is nil sequentially.
type Marsit struct {
	cfg   Config
	ranks []*RankSync
	// u holds the workers' u of the current full-precision round.
	u       []tensor.Vec
	phases  []ringPhase
	run     registry.SeqRunner
	release func() error
}

// New validates cfg and returns a fresh Marsit with zero compensation
// (Algorithm 2, line 1).
func New(cfg Config) (*Marsit, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Marsit{cfg: cfg, ranks: make([]*RankSync, cfg.Workers)}
	if !cfg.Parallel {
		for w := range m.ranks {
			m.ranks[w] = newRankSync(cfg, w)
		}
		m.u = make([]tensor.Vec, cfg.Workers)
		if tor := cfg.Torus; tor != nil {
			m.addPhase(tor.RowGroups(), 1)
			m.addPhase(tor.ColGroups(), tor.Cols())
		} else {
			m.addPhase([][]int{topology.AllRanks(cfg.Workers)}, 1)
		}
		return m, nil
	}
	// The registered per-rank leg, built from the whole Config (the
	// registry's Opts do not carry the ablation flag) and kept reachable
	// for the state accessors.
	desc := marsitDescriptor()
	desc.NewRank = func(_ *registry.Opts, rank int) (registry.RankRunner, error) {
		m.ranks[rank] = newRankSync(cfg, rank)
		return m.ranks[rank].Sync, nil
	}
	var err error
	m.run, m.release, err = OpenCollective(&desc, cfg.opts(), true, cfg.Transport)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Close releases the worker goroutines of a Parallel instance; it is a
// no-op in sequential mode. The Marsit must not be used afterwards.
func (m *Marsit) Close() error {
	if m.release == nil {
		return nil
	}
	return m.release()
}

// MustNew is New that panics on configuration errors; convenient in
// examples and benchmarks.
func MustNew(cfg Config) *Marsit {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Round returns the number of completed synchronizations t.
func (m *Marsit) Round() int { return m.ranks[0].round }

// Compensation returns a copy of worker w's compensation vector.
func (m *Marsit) Compensation(w int) tensor.Vec { return m.ranks[w].Compensation() }

// MeanCompensation returns the average compensation c̄_t, the quantity
// in Theorem 1's auxiliary sequence ỹ_t = x̃_t − c̄_t.
func (m *Marsit) MeanCompensation() tensor.Vec {
	out := tensor.New(m.cfg.Dim)
	for _, r := range m.ranks {
		tensor.Add(out, r.comp)
	}
	tensor.Scale(out, 1/float64(m.cfg.Workers))
	return out
}

// FullPrecisionNext reports whether the upcoming Sync will run at full
// precision (Algorithm 1's mod(t, K) == 0 branch). Trainers use it to
// schedule the paper's learning-rate decay at full-precision rounds.
func (m *Marsit) FullPrecisionNext() bool { return m.ranks[0].FullPrecisionNext() }

// Sync executes Algorithm 1 for one round and returns the consensus
// global update g_t as a vector that every worker applies as
// x̃_{t+1} = x̃_t − g_t, freshly allocated and the caller's to keep:
// SyncUpdate(c, grads).Dense().
func (m *Marsit) Sync(c *netsim.Cluster, grads []tensor.Vec) tensor.Vec {
	return m.SyncUpdate(c, grads).Dense()
}

// SyncUpdate executes Algorithm 1 for one round. grads[w] must hold
// worker w's locally scaled gradient η_l·g^(w)_t; the slice is not
// modified. It advances the compensation state and returns the
// consensus global update g_t in the form the round produced it
// (registry.Update): a sequential one-bit round writes no D-float vector
// and allocates nothing D-sized (only its lanes' closures and
// goroutines), and its Signs — worker 0's bits — stay valid until the
// next round. A Parallel instance returns the vector its engine's
// dispatcher unpacked once for every rank.
// Simulated time and bytes are charged to c, which must have exactly
// cfg.Workers workers.
func (m *Marsit) SyncUpdate(c *netsim.Cluster, grads []tensor.Vec) registry.Update {
	n := m.cfg.Workers
	d := m.cfg.Dim
	if c.Size() != n {
		panic(fmt.Sprintf("core: cluster size %d != workers %d", c.Size(), n))
	}
	if len(grads) != n {
		panic(fmt.Sprintf("core: %d gradients for %d workers", len(grads), n))
	}
	// Every length is checked before any worker's state moves: a bad
	// grads[2] must not leave workers 0 and 1 a round ahead.
	for w, g := range grads {
		if len(g) != d {
			panic(fmt.Sprintf("core: worker %d gradient dim %d, want %d", w, len(g), d))
		}
	}
	if m.run != nil {
		// Every worker goroutine runs RankSync.Sync on its own gradient;
		// the update is a consensus, so rank 0's stands for all (on a
		// one-bit round it is the one vector every rank shares).
		return registry.Update{Vec: m.run(c, grads)[0]}
	}

	if m.ranks[0].FullPrecisionNext() {
		// Line 1 on every worker, then lines 11–13: full-precision MAR;
		// g_t = mean(u); c ← 0.
		u := m.u
		for w, r := range m.ranks {
			u[w] = r.begin(c, grads[w])
		}
		if m.cfg.Torus != nil {
			collective.TorusAllReduce(c, m.cfg.Torus, u)
		} else {
			collective.RingAllReduce(c, u)
		}
		for _, r := range m.ranks {
			r.endFull()
		}
		return registry.Update{Vec: u[0]}
	}

	// Line 1, lines 4–8 and line 10 on lanes: packing by worker, the
	// phases' merges by segment and write-backs by member, the
	// compensation by worker, with the lanes meeting between dependent
	// steps. Columns of a torus resolve disagreeing bits with independent
	// draws; worker 0's aggregate is the consensus every worker decodes.
	lanes := tensor.Lanes(n)
	consensus := m.ranks[0].bits
	tensor.ForLanes(lanes, func(p int, b *tensor.Barrier) {
		for w := p; w < n; w += lanes {
			m.ranks[w].open(grads[w])
		}
		b.Wait()
		for i := range m.phases {
			m.phases[i].merge(m.ranks, p, lanes, b)
		}
		for w := p; w < n; w += lanes {
			m.ranks[w].compensate(consensus)
		}
	})
	// The round's charges, after the join and in schedule order, since
	// netsim.Cluster is not safe for concurrent use: no charge depends on
	// a bit. Reception and merging overlap (Section 4.1.1), so only the
	// sign packing and the decoding are charged as compression.
	for w := range m.ranks {
		c.AddCompress(w, d)
	}
	for i := range m.phases {
		for _, msgs := range m.phases[i].steps {
			c.Exchange(msgs)
		}
	}
	for w := range m.ranks {
		c.AddDecompress(w, d)
	}
	c.Barrier()
	return registry.Update{Signs: consensus, Scale: m.cfg.GlobalLR}
}

// ringPhase is one phase of the lock-step one-bit schedule: disjoint
// rings of equal length — the whole cluster, or a torus's rows or
// columns — run the one-bit reduce-scatter and all-gather side by side.
// Each member's bits enter holding an aggregate covering base workers
// and leave holding its ring's aggregate, covering base·len(ring),
// identical within the ring; member w's merges draw from ranks[w].rng.
// A Marsit builds its phases once, vectors and messages included, so a
// round allocates neither.
type ringPhase struct {
	groups [][]int
	base   int
	segs   []tensor.Segment
	// agg[g][k] is ring g's running aggregate of segment k, which travels
	// the ring: position k starts it from its own bits, and at step s
	// position k+s+1 merges its own bits of the segment into it.
	// local[g][k] holds those own bits for the merge.
	agg   [][]*bitvec.Vec
	local [][]*bitvec.Vec
	// steps[s] are the messages of exchange s: the reduce-scatter hops,
	// then the all-gather hops.
	steps [][]netsim.Message
}

// addPhase appends the phase of rings groups, whose members' aggregates
// enter covering base workers each, to a sequential Marsit. A ring of one
// has nothing to exchange.
func (m *Marsit) addPhase(groups [][]int, base int) {
	size := len(groups[0])
	if size < 2 {
		return
	}
	ph := ringPhase{groups: groups, base: base, segs: tensor.Partition(m.cfg.Dim, size)}
	for range groups {
		agg, local := make([]*bitvec.Vec, size), make([]*bitvec.Vec, size)
		for k, seg := range ph.segs {
			agg[k], local[k] = bitvec.New(seg.Len()), bitvec.New(seg.Len())
		}
		ph.agg = append(ph.agg, agg)
		ph.local = append(ph.local, local)
	}
	pos := func(i int) int { return ((i % size) + size) % size }
	// Reduce-scatter step s: position p passes on its aggregate of
	// segment p−s. All-gather step s: the final segment p+1−s.
	for _, shift := range []int{0, 1} {
		for s := 0; s < size-1; s++ {
			var msgs []netsim.Message
			for _, g := range groups {
				for p := range g {
					seg := ph.segs[pos(p+shift-s)]
					msgs = append(msgs, netsim.Message{
						From: g[p], To: g[pos(p+1)], Bytes: (seg.Len() + 7) / 8,
					})
				}
			}
			ph.steps = append(ph.steps, msgs)
		}
	}
	m.phases = append(m.phases, ph)
}

// merge is lane p's share, of lanes that b synchronizes, of the phase's
// one-bit ring reduce-scatter and of the write-back that stands for its
// all-gather; the exchanges are the caller's to charge. The phase's rings
// hold len(groups)·size merge tasks, task g·size+k being ring g's
// segment k, and lane p takes the tasks p, p+lanes, …: at step s it
// merges each of its segments k alone, into agg[g][k] with local[g][k],
// from the stream of member k+s+1, who merges no other segment in that
// step. So no two lanes share a vector or a stream within a step, and
// meeting at b after every step keeps each stream's draws in schedule
// order. The write-back then runs by member, one task per member.
func (ph *ringPhase) merge(ranks []*RankSync, p, lanes int, b *tensor.Barrier) {
	size := len(ph.segs)
	tasks := len(ph.groups) * size
	for i := p; i < tasks; i += lanes {
		gi, k := i/size, i%size
		ranks[ph.groups[gi][k]].bits.ExtractInto(ph.agg[gi][k], ph.segs[k].Lo)
	}
	for s := 0; s < size-1; s++ {
		for i := p; i < tasks; i += lanes {
			gi, k := i/size, i%size
			r, local := ranks[ph.groups[gi][(k+s+1)%size]], ph.local[gi][k]
			r.bits.ExtractInto(local, ph.segs[k].Lo)
			// The arriving aggregate covers (s+1)·base workers, the local
			// side base.
			MergeSigns(ph.agg[gi][k], local, (s+1)*ph.base, ph.base, r.rng)
		}
		b.Wait()
	}
	// Every member writes back every final segment; the all-gather
	// exchanges only charge their circulation.
	for i := p; i < tasks; i += lanes {
		gi := i / size
		bits := ranks[ph.groups[gi][i%size]].bits
		for k, seg := range ph.segs {
			bits.Insert(seg.Lo, ph.agg[gi][k])
		}
	}
	b.Wait()
}
