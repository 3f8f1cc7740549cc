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
// goroutines in-process (the registered "marsit" collective opened on an
// engine) and in one marsit-node process per rank across machines. A
// Marsit holds one RankSync per worker and drives them in lock step;
// OpenCollective is the one place that chooses between that and the
// per-rank schedule. Both charge wire bytes and simulated time to the
// netsim substrate identically; because compression and reception
// overlap by design (Section 4.1.1), a one-bit round charges only the
// initial sign packing and the final unpacking as compression time.
//
// A one-bit round's global update is D bits and one scalar, ±η_s, and
// both schedules return it as that (registry.Update): the compensation
// subtracts ±η_s straight from the consensus bits — in the next one-bit
// round's packing pass, or alone before anything else reads the
// compensation or a full-precision round opens — and a caller such as
// the trainer reads its metric from them and unpacks them into a vector
// of its own for the optimizer step. The bits are the synchronizer's
// own, read-only and valid only until its next round; registry.Dense
// unpacks one vector per consensus for every rank that holds it. Sync is
// SyncUpdate followed by Update.Dense, one fresh vector of ±η_s per
// round, bit-equal to the values the compensation subtracted.
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
// execution engine — the one place marsit.Run and train.Run pick between
// the two. Sequentially that is desc's lock-step leg. In parallel it is a
// concurrent engine over the fabric kind with desc opened on it, one
// per-rank runner per worker goroutine, whose Updates has the sequential
// leg's shape. Either way one runner drives a whole multi-round job,
// returns every rank's output in the form the round produced it — the
// ranks of a one-bit consensus share its bits, which registry.Dense
// unpacks once for all of them — and release frees what it holds
// (nothing, sequentially).
func OpenCollective(desc *registry.Descriptor, o *registry.Opts, parallel bool, kind Transport) (run registry.UpdateRunner, release func() error, err error) {
	if !parallel {
		if err := registry.Prepare(desc, o); err != nil {
			return nil, nil, err
		}
		run, err = desc.NewSeq(o)
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
	return cl.Updates, eng.Close, nil
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

// FullPrecisionRound reports whether round t (counted from 0) of a
// synchronizer with period k runs at full precision: Algorithm 1's
// mod(t, K) == 0 branch, never for k <= 0. It is the one K rule; a
// trainer that schedules the learning-rate decay at full-precision
// rounds reads it through its own round counter.
func FullPrecisionRound(k, t int) bool {
	return k > 0 && t%k == 0
}

// fullPrecision reports whether round t runs at full precision.
func (cfg Config) fullPrecision(t int) bool {
	return FullPrecisionRound(cfg.K, t)
}

// Marsit holds Algorithm 1's state for every worker of a cluster —
// ranks[w] is worker w's RankSync, the only representation there is —
// and executes one synchronization per Sync call.
//
// SyncUpdate drives the workers in lock step from the calling
// goroutine: begin on each, internal/collective's full-precision
// all-reduce and endFull on each, or a one-bit round on lanes (open, the
// rings of phases, compensate) followed by its charges. The per-rank
// schedule of the same state is the "marsit" collective opened on an
// engine (OpenCollective).
type Marsit struct {
	cfg   Config
	ranks []*RankSync
	// u holds the workers' u of the current full-precision round.
	u      []tensor.Vec
	phases []ringPhase
}

// New validates cfg and returns a fresh Marsit with zero compensation
// (Algorithm 2, line 1).
func New(cfg Config) (*Marsit, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Marsit{cfg: cfg, ranks: make([]*RankSync, cfg.Workers), u: make([]tensor.Vec, cfg.Workers)}
	for w := range m.ranks {
		m.ranks[w] = newRankSync(cfg, w)
	}
	m.addPhases()
	return m, nil
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
		r.settle()
		tensor.Add(out, r.comp)
	}
	tensor.Scale(out, 1/float64(m.cfg.Workers))
	return out
}

// FullPrecisionNext reports whether the upcoming Sync will run at full
// precision (Algorithm 1's mod(t, K) == 0 branch, FullPrecisionRound at
// the completed round count).
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
// (registry.Update): a one-bit round writes no D-float vector and
// allocates nothing D-sized (only its lanes' closures and goroutines),
// and its Signs — worker 0's bits — stay valid until the next round.
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
	if m.FullPrecisionNext() {
		// Line 1 on every worker, then lines 11–13: full-precision MAR;
		// g_t = mean(u); c ← 0.
		u := m.u
		for w, r := range m.ranks {
			u[w] = r.begin(c, grads[w])
		}
		collective.TorusAllReduce(c, m.cfg.Torus, u)
		for _, r := range m.ranks {
			r.endFull()
		}
		return registry.Update{Vec: u[0]}
	}

	// Line 1 (after the last round's owed line 10), lines 4–8 and line 10
	// on lanes: packing by worker, the phases' merges by segment and
	// write-backs by segment, the compensation by worker, with the lanes
	// meeting between dependent steps. Every segment has one merge chain,
	// and the last phase writes each final segment into worker 0's bits:
	// the consensus every worker decodes, and every rank of the per-rank
	// schedule holds. Line 10 only copies it into a worker's own bits for
	// that worker's next packing pass to subtract.
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
	m.exchangePhases(c)
	for w := range m.ranks {
		c.AddDecompress(w, d)
	}
	c.Barrier()
	return registry.Update{Signs: consensus, Scale: m.cfg.GlobalLR}
}

// exchangePhases charges the one-bit round's hops in every rank's own
// order: the reduce-scatters outward (the rows, then the columns), the
// all-gathers back in.
func (m *Marsit) exchangePhases(c *netsim.Cluster) {
	for i := range m.phases {
		for _, msgs := range m.phases[i].rs {
			c.Exchange(msgs)
		}
	}
	for i := len(m.phases) - 1; i >= 0; i-- {
		for _, msgs := range m.phases[i].ag {
			c.Exchange(msgs)
		}
	}
}

// ringPhase is one phase of the lock-step one-bit schedule: disjoint
// rings of equal length — a torus's rows (the whole cluster for a flat
// ring) or its columns — run the one-bit reduce-scatter side by side,
// ring g over segs[g]. Members' bits enter covering base workers each;
// segment k leaves in agg[g][k] covering base·len(ring), and member w's
// merges draw from ranks[w].rng. The all-gather moves no bit the lock
// step needs, so it is only charged. A Marsit builds its phases once,
// vectors and messages included, so a round allocates neither.
type ringPhase struct {
	groups [][]int
	base   int
	// segs[g] partitions ring g's range of the bits into one absolute
	// segment per member.
	segs [][]tensor.Segment
	// agg[g][k] is ring g's running aggregate of segment k, which travels
	// the ring: position k starts it from its own bits, and at step s
	// position k+s+1 merges its own bits of the segment into it.
	// local[g][k] holds those own bits for the merge.
	agg   [][]*bitvec.Vec
	local [][]*bitvec.Vec
	// rs[s] and ag[s] are the messages of reduce-scatter step s and of
	// all-gather step s.
	rs, ag [][]netsim.Message
	// last marks the schedule's final phase, whose segments are the
	// consensus.
	last bool
}

// addPhases builds the lock-step one-bit schedule from the torus layout,
// the 1×M torus for a flat ring: the rows' rings over the row partition
// of the bits, then the columns' rings, each over the row segment its
// members own after the rows' reduce-scatter — (p+1) mod cols for
// column p — with the row width as the base weight.
func (m *Marsit) addPhases() {
	tor := m.cfg.Torus
	if tor == nil {
		tor = topology.NewTorus(1, m.cfg.Workers)
	}
	cols := tor.Cols()
	rowSegs := tensor.Partition(m.cfg.Dim, cols)
	rows, colGroups := tor.RowGroups(), tor.ColGroups()
	segs := make([][]tensor.Segment, len(rows))
	for g := range rows {
		segs[g] = rowSegs
	}
	m.addPhase(rows, 1, segs, tor.Rows() < 2)
	segs = make([][]tensor.Segment, len(colGroups))
	for p := range colGroups {
		owned := rowSegs[(p+1)%cols]
		segs[p] = tensor.Partition(owned.Len(), tor.Rows())
		for i := range segs[p] {
			segs[p][i].Lo += owned.Lo
			segs[p][i].Hi += owned.Lo
		}
	}
	m.addPhase(colGroups, cols, segs, true)
}

// addPhase appends the phase of rings groups over segs, whose members'
// aggregates enter covering base workers each, to a sequential Marsit;
// last marks the schedule's final phase. A ring of one has nothing to
// exchange.
func (m *Marsit) addPhase(groups [][]int, base int, segs [][]tensor.Segment, last bool) {
	size := len(groups[0])
	if size < 2 {
		return
	}
	ph := ringPhase{groups: groups, base: base, segs: segs, last: last}
	for g := range groups {
		agg, local := make([]*bitvec.Vec, size), make([]*bitvec.Vec, size)
		for k, seg := range segs[g] {
			agg[k], local[k] = bitvec.New(seg.Len()), bitvec.New(seg.Len())
		}
		ph.agg = append(ph.agg, agg)
		ph.local = append(ph.local, local)
	}
	pos := func(i int) int { return ((i % size) + size) % size }
	// Reduce-scatter step s: position p passes on its aggregate of
	// segment p−s. All-gather step s: the final segment p+1−s.
	steps := func(shift int) [][]netsim.Message {
		out := make([][]netsim.Message, size-1)
		for s := range out {
			for gi, g := range groups {
				for p := range g {
					seg := segs[gi][pos(p+shift-s)]
					out[s] = append(out[s], netsim.Message{
						From: g[p], To: g[pos(p+1)], Bytes: (seg.Len() + 7) / 8,
					})
				}
			}
		}
		return out
	}
	ph.rs, ph.ag = steps(0), steps(1)
	m.phases = append(m.phases, ph)
}

// merge is lane p's share, of lanes that b synchronizes, of the phase's
// one-bit ring reduce-scatter and of the write-back of its final
// segments; the exchanges are the caller's to charge. The phase's rings
// hold len(groups)·size merge tasks, task g·size+k being ring g's
// segment k, and lane p takes the tasks p, p+lanes, …: at step s it
// merges each of its segments k alone, into agg[g][k] with local[g][k],
// from the stream of member k+s+1, who merges no other segment in that
// step. So no two lanes share a vector or a stream within a step, and
// meeting at b after every step keeps each stream's draws in schedule
// order. Segment k ends with member k−1, as in the per-rank schedule.
// Before the last phase each final segment goes into that member's bits,
// the local side of the next phase, one segment per member, by task. The
// last phase writes every final segment once, into the consensus
// (worker 0's bits), on lane 0 alone: segments of one vector may share a
// word.
func (ph *ringPhase) merge(ranks []*RankSync, p, lanes int, b *tensor.Barrier) {
	size := len(ph.groups[0])
	tasks := len(ph.groups) * size
	for i := p; i < tasks; i += lanes {
		gi, k := i/size, i%size
		ranks[ph.groups[gi][k]].bits.ExtractInto(ph.agg[gi][k], ph.segs[gi][k].Lo)
	}
	for s := 0; s < size-1; s++ {
		for i := p; i < tasks; i += lanes {
			gi, k := i/size, i%size
			r, local := ranks[ph.groups[gi][(k+s+1)%size]], ph.local[gi][k]
			r.bits.ExtractInto(local, ph.segs[gi][k].Lo)
			// The arriving aggregate covers (s+1)·base workers, the local
			// side base.
			MergeSigns(ph.agg[gi][k], local, (s+1)*ph.base, ph.base, r.rng)
		}
		b.Wait()
	}
	switch {
	case !ph.last:
		for i := p; i < tasks; i += lanes {
			gi, k := i/size, i%size
			owner := ranks[ph.groups[gi][(k+size-1)%size]]
			owner.bits.Insert(ph.segs[gi][k].Lo, ph.agg[gi][k])
		}
	case p == 0:
		for gi, segs := range ph.segs {
			for k, seg := range segs {
				ranks[0].bits.Insert(seg.Lo, ph.agg[gi][k])
			}
		}
	}
	b.Wait()
}
