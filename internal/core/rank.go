package core

import (
	"fmt"

	"marsit/internal/bitvec"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// RankSync is one worker's share of Algorithm 1: its compensation
// vector, packed signs, transient stream and round counter, and — in
// begin, endFull and endOneBit — every line of the algorithm outside
// the one-bit synchronization of lines 4–8. That arithmetic is stated
// here and nowhere else; both engines run it on the same state.
//
// What each engine states for itself is the schedule of lines 4–8 (and
// of the full-precision all-reduce): RankSync.Sync runs this rank's
// share over a transport endpoint — the registered "marsit" collective's
// per-rank leg, a Parallel Marsit's workers and the processes that host
// one rank each (cmd/marsit-node) — and the sequential Marsit.Sync runs
// all workers' in lock step. The two are bit-identical in updates,
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
// endOneBit: c += η_l·g turns the compensation vector into u while its
// signs are packed, so u is never a vector of its own. IEEE addition
// commutes, so this is bit for bit Clone(grad) + c (only the payload of
// a NaN + NaN sum may differ, and a NaN packs as −1 either way). Under
// the ablation c is zero and stays zero, so u's signs are grad's.
func (r *RankSync) begin(c *netsim.Cluster, grad tensor.Vec) tensor.Vec {
	d := r.cfg.Dim
	if len(grad) != d {
		panic(fmt.Sprintf("core: worker %d gradient dim %d, want %d", r.rank, len(grad), d))
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
	c.AddCompress(r.rank, d)
	return nil
}

// endFull closes a full-precision round (lines 11–13): the reduced u is
// the update, and c ← 0.
func (r *RankSync) endFull() { tensor.Zero(r.comp) }

// endOneBit closes a one-bit round — lines 9 and 10 in one pass:
// g_t = η_s · consensus is written into gt as ±η_s directly, and
// c_{t+1} = u − g_t in place where u sits (skipped under the ablation).
// The decoding is charged as decompression.
func (r *RankSync) endOneBit(c *netsim.Cluster, consensus *bitvec.Vec, gt tensor.Vec) {
	if r.cfg.DisableCompensation {
		consensus.UnpackScaled(gt, r.cfg.GlobalLR)
	} else {
		consensus.UnpackScaledSub(gt, r.comp, r.cfg.GlobalLR)
	}
	c.AddDecompress(r.rank, r.cfg.Dim)
}

// Sync executes one round of Algorithm 1 for this rank: grad is the
// rank's locally scaled gradient η_l·g (not modified); the returned
// vector is the consensus global update g_t, freshly allocated and the
// caller's to keep. The endpoint must belong to this rank on a fabric of
// cfg.Workers ranks; c is charged exactly like the sequential engine, and
// the round ends in a ClockBarrier (netsim's implicit lock step, over the
// wire).
//
// A one-bit round makes two passes over its D-float vectors (begin and
// endOneBit) and allocates only g_t. g_t is deliberately not pooled —
// callers hold it across rounds (the benchmark's verification, a
// trainer's optimiser step), and a reused one would alias them.
func (r *RankSync) Sync(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) tensor.Vec {
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
		return u
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

	gt := tensor.New(r.cfg.Dim)
	r.endOneBit(c, bits, gt)
	runtime.ClockBarrier(c, ep)
	return gt
}
