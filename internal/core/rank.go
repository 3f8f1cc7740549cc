package core

import (
	"fmt"

	"marsit/internal/bitvec"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// RankSync is one worker's share of Algorithm 1: its compensation
// vector, packed signs, transient stream and round counter, and — in
// open, endFull, compensate and settle — every line of the algorithm
// outside the one-bit synchronization of lines 4–8. That arithmetic is
// stated here and nowhere else; both engines run it on the same state.
// begin and endOneBit are open and compensate with their compression
// charges, the form a per-rank schedule calls.
//
// What each engine states for itself is the schedule of lines 4–8 (and
// of the full-precision all-reduce): RankSync.Sync runs this rank's
// share over a transport endpoint — the registered "marsit" collective's
// per-rank leg, on an engine's worker goroutines and in the processes
// that host one rank each (cmd/marsit-node) — and the sequential
// Marsit.SyncUpdate runs all workers' in lock step. The two are
// bit-identical in updates, compensation, wire bytes and virtual clocks
// (the equivalence tests pin this), so a change to a schedule — merge
// order, draw order, charge order, barrier placement — must be made to
// both.
type RankSync struct {
	cfg  Config
	rank int
	comp tensor.Vec
	// bits carries a one-bit round's signs from packing to decoding; the
	// RankSync owns it and reuses it every round.
	bits *bitvec.Vec
	// owed marks line 10 of the last one-bit round as not yet applied:
	// comp still holds that round's u, and bits the consensus whose
	// η_s·signs it owes. The next one-bit round's packing pass subtracts
	// them on its way (bitvec's PackSignsOfSubSum); settle does it alone
	// for everything else that reads comp.
	owed  bool
	rng   *rng.PCG
	round int
}

// NewRankSync validates cfg (the same configuration every rank of the
// fabric must share) and returns rank's synchronizer with zero
// compensation. A non-nil cfg.Torus selects the hierarchical 2D-torus
// schedule for both kinds of round: TAR at full precision, and the
// one-bit all-reduce in TAR's shape (row reduce-scatter, a column ring
// over the owned row segment, row all-gather), which leaves every rank
// with the same bits. A nil Torus is the flat ring, the 1×M case of the
// same one-bit schedule.
func NewRankSync(cfg Config, rank int) (*RankSync, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= cfg.Workers {
		return nil, fmt.Errorf("core: rank %d out of range [0,%d)", rank, cfg.Workers)
	}
	return newRankSync(cfg, rank), nil
}

// newRankSync is NewRankSync for a cfg and rank already checked.
func newRankSync(cfg Config, rank int) *RankSync {
	return &RankSync{
		cfg:  cfg,
		rank: rank,
		comp: tensor.New(cfg.Dim),
		bits: bitvec.New(cfg.Dim),
		// Worker w draws its transients from stream w+1 of the shared seed.
		rng: rng.NewStream(cfg.Seed, uint64(rank)+1),
	}
}

// Round returns the number of completed synchronizations t.
func (r *RankSync) Round() int { return r.round }

// Compensation returns a copy of the rank's compensation vector.
func (r *RankSync) Compensation() tensor.Vec {
	r.settle()
	return tensor.Clone(r.comp)
}

// settle applies an owed line 10, c ← u − η_s·signs, in a pass of its
// own: before a full-precision round and before comp is read.
func (r *RankSync) settle() {
	if r.owed {
		r.bits.SubScaled(r.comp, r.cfg.GlobalLR)
		r.owed = false
	}
}

// FullPrecisionNext mirrors Marsit.FullPrecisionNext for this rank.
func (r *RankSync) FullPrecisionNext() bool {
	return r.cfg.fullPrecision(r.round)
}

// begin opens a round for this worker: grad is its locally scaled
// gradient η_l·g (not modified). On a full-precision round it returns
// line 1's u = η_l·g + c as a fresh vector for the all-reduce, to be
// followed by endFull. On a one-bit round it returns nil with u's signs
// packed into r.bits and charged as compression, to be followed by
// endOneBit. It is open and then the charge.
func (r *RankSync) begin(c *netsim.Cluster, grad tensor.Vec) tensor.Vec {
	u := r.open(grad)
	if u == nil {
		c.AddCompress(r.rank, r.cfg.Dim)
	}
	return u
}

// open is begin's arithmetic, charging nothing, so that the lock-step
// schedule can open every worker's round on lanes and charge them after
// the join: it touches only this worker's compensation, bits and round
// counter. On a one-bit round c += η_l·g turns the compensation vector
// into u while its signs are packed, so u is never a vector of its own;
// when the last round's line 10 is still owed, the same pass subtracts
// η_s·signs first, reading each sign from the word it packs the new one
// into. IEEE addition commutes, so this is bit for bit Clone(grad) + c
// (only the payload of a NaN + NaN sum may differ, and a NaN packs as −1
// either way). Under the ablation c is zero and stays zero, so u's signs
// are grad's.
func (r *RankSync) open(grad tensor.Vec) tensor.Vec {
	if len(grad) != r.cfg.Dim {
		panic(fmt.Sprintf("core: worker %d gradient dim %d, want %d", r.rank, len(grad), r.cfg.Dim))
	}
	full := r.FullPrecisionNext()
	r.round++
	if full {
		r.settle()
		u := tensor.Clone(grad)
		tensor.Add(u, r.comp)
		return u
	}
	switch {
	case r.cfg.DisableCompensation:
		r.bits.PackSigns(grad)
	case r.owed:
		r.bits.PackSignsOfSubSum(r.comp, r.cfg.GlobalLR, grad)
		r.owed = false
	default:
		r.bits.PackSignsOfSum(r.comp, grad)
	}
	return nil
}

// endFull closes a full-precision round (lines 11–13): the reduced u is
// the update, and c ← 0.
func (r *RankSync) endFull() { tensor.Zero(r.comp) }

// endOneBit closes a one-bit round: compensate, and the decoding charged
// as decompression.
func (r *RankSync) endOneBit(c *netsim.Cluster, consensus *bitvec.Vec) {
	r.compensate(consensus)
	c.AddDecompress(r.rank, r.cfg.Dim)
}

// compensate is endOneBit's arithmetic, charging nothing — line 10,
// c_{t+1} = u − g_t with g_t = η_s·consensus, recorded as owed rather
// than applied (skipped under the ablation, where c stays zero): the
// next open or settle subtracts it from the bits. g_t itself is never
// written: the round's update is the consensus and η_s
// (registry.Update). The rank's own bits must hold the consensus until
// then, so a worker of the lock-step schedule, whose consensus is worker
// 0's bits, copies it (D/8 bytes). It writes only this worker's bits and
// reads consensus, so every worker's runs on lanes against the same
// bits.
func (r *RankSync) compensate(consensus *bitvec.Vec) {
	if r.cfg.DisableCompensation {
		return
	}
	if consensus != r.bits {
		r.bits.Copy(consensus)
	}
	r.owed = true
}

// Sync executes one round of Algorithm 1 for this rank: grad is the
// rank's locally scaled gradient η_l·g (not modified), and the result is
// the round's global update in the form it was produced (registry.Update)
// — on a full-precision round the reduced u, a vector of the rank's own
// and the caller's to keep; on a one-bit round this rank's consensus bits
// and η_s, which stay valid until its next round. It is the registered
// "marsit" collective's per-rank leg: every rank returns the same
// consensus bits, as the sequential leg hands its one update to every
// rank, and registry.Dense unpacks them once for all. The endpoint must
// belong to this rank on a fabric of cfg.Workers ranks; c is charged
// exactly like the sequential engine, and the round ends in a
// ClockBarrier (netsim's implicit lock step, over the wire).
//
// A one-bit round makes one pass over the rank's D-float vectors and
// allocates none of them: begin's packing, which also subtracts the last
// one-bit round's η_s·signs (line 10, which endOneBit only records). A
// round after a full-precision one or after a read of the compensation
// packs without it, and a full-precision round settles it first.
func (r *RankSync) Sync(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
	if ep.Rank() != r.rank || ep.Size() != r.cfg.Workers {
		panic(fmt.Sprintf("core: endpoint %d/%d for RankSync %d/%d",
			ep.Rank(), ep.Size(), r.rank, r.cfg.Workers))
	}
	if u := r.begin(c, grad); u != nil {
		// Full-precision all-reduce (RAR or TAR) of u.
		runtime.TorusAllReduceRank(c, ep, r.cfg.Torus, u)
		r.endFull()
		runtime.ClockBarrier(c, ep)
		return registry.Update{Vec: u}
	}

	// Lines 4–8: one-bit synchronization with the ⊙ merge drawing from
	// this rank's stream in schedule order.
	bits := r.bits
	merge := func(_ int, agg, local *bitvec.Vec, aw, bw int) {
		MergeSigns(agg, local, aw, bw, r.rng)
	}
	runtime.OneBitAllReduceRank(c, ep, r.cfg.Torus, bits, merge)
	r.endOneBit(c, bits)
	runtime.ClockBarrier(c, ep)
	return registry.Update{Signs: bits, Scale: r.cfg.GlobalLR}
}
