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

// RankSync executes Algorithm 1 for a single rank of a fabric — the
// per-rank statement of the algorithm, and the only one the concurrent
// engine runs: the registered "marsit" collective's per-rank leg, a
// Parallel Marsit's workers and the processes that host one rank each
// (cmd/marsit-node) are all RankSyncs. It keeps the rank's compensation
// vector and transient stream, and runs each round's collective through
// the per-rank entry points of internal/runtime.
//
// A fleet of RankSyncs over one transport is bit-identical — updates,
// compensation, wire bytes and virtual clocks — to the sequential
// Marsit.Sync driving the whole cluster in lock step (the equivalence
// tests pin this), so the two must mirror each other mechanism for
// mechanism: charge order, merge-stream derivation, K-period condition,
// barrier placement. Change them together.
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
	return &RankSync{
		cfg:  cfg,
		rank: rank,
		comp: tensor.New(cfg.Dim),
		bits: bitvec.New(cfg.Dim),
		// The same per-worker stream derivation as New: stream w+1 of
		// the shared seed.
		rng: rng.NewStream(cfg.Seed, uint64(rank)+1),
	}, nil
}

// Round returns the number of completed synchronizations t.
func (r *RankSync) Round() int { return r.round }

// Compensation returns a copy of the rank's compensation vector.
func (r *RankSync) Compensation() tensor.Vec { return tensor.Clone(r.comp) }

// FullPrecisionNext mirrors Marsit.FullPrecisionNext for this rank.
func (r *RankSync) FullPrecisionNext() bool {
	return r.cfg.fullPrecision(r.round)
}

// Sync executes one round of Algorithm 1 for this rank: grad is the
// rank's locally scaled gradient η_l·g (not modified); the returned
// vector is the consensus global update g_t, freshly allocated and the
// caller's to keep. The endpoint must belong to this rank on a fabric of
// cfg.Workers ranks; c is charged exactly like the sequential engine, and
// the round ends in a ClockBarrier (netsim's implicit lock step, over the
// wire).
//
// A one-bit round makes two passes over its D-float vectors and
// allocates only g_t: u is never a vector of its own but lives in the
// compensation vector between the passes. g_t is deliberately not
// pooled — callers hold it across rounds (the benchmark's verification,
// a trainer's optimiser step), and a reused one would alias them.
func (r *RankSync) Sync(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) tensor.Vec {
	if ep.Rank() != r.rank || ep.Size() != r.cfg.Workers {
		panic(fmt.Sprintf("core: endpoint %d/%d for RankSync %d/%d",
			ep.Rank(), ep.Size(), r.rank, r.cfg.Workers))
	}
	d := r.cfg.Dim
	if len(grad) != d {
		panic(fmt.Sprintf("core: rank %d gradient dim %d, want %d", r.rank, len(grad), d))
	}
	full := r.FullPrecisionNext()
	r.round++

	if full {
		// Line 1: u = η_l·g + c. Lines 11–13: full-precision all-reduce
		// (RAR or TAR) of u; c ← 0.
		u := tensor.Clone(grad)
		tensor.Add(u, r.comp)
		if r.cfg.Torus != nil {
			runtime.TorusAllReduceRank(c, ep, r.cfg.Torus, u, 1)
		} else {
			runtime.RingAllReduceRank(c, ep, u, 1)
		}
		tensor.Zero(r.comp)
		runtime.ClockBarrier(c, ep)
		return u
	}

	// Pass one — line 1 and the sign packing together: c += η_l·g turns
	// the compensation vector into u while its signs are packed. IEEE
	// addition commutes, so this is bit for bit the sequential oracle's
	// Clone(grad) + c (only the payload of a NaN + NaN sum may differ,
	// and a NaN packs as −1 either way). Under the ablation c is zero and
	// stays zero, so u's signs are grad's.
	bits := r.bits
	if r.cfg.DisableCompensation {
		bits.PackSigns(grad)
	} else {
		bits.PackSignsOfSum(r.comp, grad)
	}
	c.AddCompress(r.rank, d)

	// Lines 4–8: one-bit synchronization with the ⊙ merge drawing from
	// this rank's stream in schedule order.
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

	// Pass two — lines 9 and 10 together: g_t = η_s · signs, written as
	// ±η_s directly, and c_{t+1} = u − g_t in place where u sits.
	gt := tensor.New(d)
	if r.cfg.DisableCompensation {
		bits.UnpackSigns(gt)
		tensor.Scale(gt, r.cfg.GlobalLR)
	} else {
		bits.UnpackScaledSub(gt, r.comp, r.cfg.GlobalLR)
	}
	c.AddDecompress(r.rank, d)
	runtime.ClockBarrier(c, ep)
	return gt
}
