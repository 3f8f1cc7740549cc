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
// open, endFull and compensate — every line of the algorithm outside
// the one-bit synchronization of lines 4–8. That arithmetic is stated
// here and nowhere else; both engines run it on the same state. begin
// and endOneBit are open and compensate with their compression charges,
// the form a per-rank schedule calls.
//
// What each engine states for itself is the schedule of lines 4–8 (and
// of the full-precision all-reduce): RankSync.Sync runs this rank's
// share over a transport endpoint — the registered "marsit" collective's
// per-rank leg, a Parallel Marsit's workers and the processes that host
// one rank each (cmd/marsit-node) — and the sequential Marsit.SyncUpdate
// runs all workers' in lock step. The two are bit-identical in updates,
// compensation, wire bytes and virtual clocks (the equivalence tests pin
// this), so a change to a schedule — merge order, draw order, charge
// order, barrier placement — must be made to both.
type RankSync struct {
	cfg  Config
	rank int
	comp tensor.Vec
	// bits carries a one-bit round's signs from packing to decoding; the
	// RankSync owns it and reuses it every round.
	bits  *bitvec.Vec
	rng   *rng.PCG
	round int
}

// NewRankSync validates cfg (the same configuration every rank of the
// fabric must share) and returns rank's synchronizer with zero
// compensation. A non-nil cfg.Torus selects the hierarchical 2D-torus
// schedule (TAR full-precision rounds, row-then-column one-bit rings),
// mirroring Marsit.Sync's topology switch.
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
func (r *RankSync) Compensation() tensor.Vec { return tensor.Clone(r.comp) }

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
// into u while its signs are packed, so u is never a vector of its own.
// IEEE addition commutes, so this is bit for bit Clone(grad) + c (only
// the payload of a NaN + NaN sum may differ, and a NaN packs as −1
// either way). Under the ablation c is zero and stays zero, so u's signs
// are grad's.
func (r *RankSync) open(grad tensor.Vec) tensor.Vec {
	if len(grad) != r.cfg.Dim {
		panic(fmt.Sprintf("core: worker %d gradient dim %d, want %d", r.rank, len(grad), r.cfg.Dim))
	}
	full := r.FullPrecisionNext()
	r.round++
	if full {
		u := tensor.Clone(grad)
		tensor.Add(u, r.comp)
		return u
	}
	if r.cfg.DisableCompensation {
		r.bits.PackSigns(grad)
	} else {
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

// compensate is endOneBit's arithmetic, charging nothing — line 10:
// c_{t+1} = u − g_t in place where u sits, with g_t = η_s·consensus
// subtracted straight from the bits (skipped under the ablation, where c
// stays zero). g_t itself is never written: the round's update is the
// consensus and η_s (registry.Update). It writes only this worker's
// compensation and reads consensus, so every worker's runs on lanes
// against the same bits.
func (r *RankSync) compensate(consensus *bitvec.Vec) {
	if !r.cfg.DisableCompensation {
		consensus.SubScaled(r.comp, r.cfg.GlobalLR)
	}
}

// Sync executes one round of Algorithm 1 for this rank: grad is the
// rank's locally scaled gradient η_l·g (not modified), and the result is
// the round's global update in the form it was produced (registry.Update)
// — on a full-precision round the reduced u, a vector of the rank's own
// and the caller's to keep; on a one-bit round this rank's consensus bits
// and η_s, which stay valid until its next round. It is the registered
// "marsit" collective's per-rank leg: the engine's dispatcher unpacks the
// bits once per distinct consensus and hands every rank that shares it
// the same vector, as the sequential leg does. The endpoint must belong
// to this rank on a fabric of cfg.Workers ranks; c is charged exactly
// like the sequential engine, and the round ends in a ClockBarrier
// (netsim's implicit lock step, over the wire).
//
// A one-bit round makes two passes over the rank's D-float vectors
// (begin's packing and endOneBit's subtraction) and allocates none of
// them.
func (r *RankSync) Sync(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
	if ep.Rank() != r.rank || ep.Size() != r.cfg.Workers {
		panic(fmt.Sprintf("core: endpoint %d/%d for RankSync %d/%d",
			ep.Rank(), ep.Size(), r.rank, r.cfg.Workers))
	}
	if u := r.begin(c, grad); u != nil {
		// Full-precision all-reduce (RAR or TAR) of u.
		if r.cfg.Torus != nil {
			runtime.TorusAllReduceRank(c, ep, r.cfg.Torus, u, 1)
		} else {
			runtime.RingAllReduceRank(c, ep, u, 1)
		}
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
	if r.cfg.Torus != nil {
		runtime.OneBitTorusAllReduceRank(c, ep, r.cfg.Torus, bits, merge)
		if r.cfg.Torus.Rows() >= 2 && r.cfg.Torus.Cols() >= 2 {
			// Columns resolve disagreeing bits with independent draws;
			// the sequential engine defines g_t from worker 0's
			// aggregate, so align to it (control plane, nothing
			// charged) before decoding.
			runtime.AlignBitsToRank0(ep, bits)
		}
	} else {
		runtime.OneBitRingAllReduceRank(c, ep, bits, merge)
	}

	r.endOneBit(c, bits)
	runtime.ClockBarrier(c, ep)
	return registry.Update{Signs: bits, Scale: r.cfg.GlobalLR}
}
