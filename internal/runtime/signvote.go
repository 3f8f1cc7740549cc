package runtime

import (
	"math"

	"marsit/internal/bitvec"
	"marsit/internal/collective"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// This file states the sign-vote family once. signSGD, EF-signSGD and
// SSDM over the ring, the torus or the parameter server all run the
// same round —
//
//	rank-local compress → exchange → decode → barrier
//
// — and differ only in how a rank compresses and in which exchange
// carries the signs. SignVote builds both execution legs of that round
// for any member; the registered "signsum" and "ps-scaledsign"
// collectives are its default (plain signSGD) members, "ssdm" its
// stochastic ring member (collective.OverflowRing is its oracle), and
// internal/train derives ef-signsgd and ssdm from the same two bases.

// SignVote returns base with both legs replaced by a sign-vote round.
//
// Compression is deterministic signSGD (±1 signs, ℓ1/D scale) or, with
// stochastic set, SSDM (signs drawn from the rank's Opts stream, ℓ2-norm
// scale). errorFeedback carries EF-signSGD's per-rank residual
// e ← (g + e) − scale·signs across rounds and compresses g + e.
//
// A rank's compressed gradient is D votes, +1 or −1, written once into
// an []int64 — the vector the sign-sum ring then accumulates in place, so
// the per-rank leg draws it from the shared pool and hands it back after
// the decode, and no ±1 float vector is ever built.
//
// The exchange follows base: a PS topology pushes signs and scale to
// the rank-0 hub and pulls the dense norm-weighted mean; otherwise the
// integer sign sums travel the bit-width-expansion ring (the torus when
// Opts.Torus is set; ± Opts.Elias) and decode by majority
// vote — or linearly, mean scale × mean sign, once the signs are
// stochastic or error-corrected, into the rank's gradient, dead once
// compressed. A majority is one bit per coordinate,
// the same on every rank, so the per-rank leg returns it as bits and
// the mean scale (registry.Update.Signs), and registry.Dense unpacks one
// vector per consensus, as the sequential leg hands its one decoded
// update to every rank. Every rank is charged the packing and the decode, and the round
// ends in a barrier.
func SignVote(base registry.Descriptor, stochastic, errorFeedback bool) registry.Descriptor {
	ps := base.Topology == registry.PS
	majority := !stochastic && !errorFeedback
	decode := func(sums []int64, total float64, n int) tensor.Vec {
		return linearDecode(tensor.New(len(sums)), sums, total, n)
	}
	if majority {
		decode = collective.MajorityDecode
	}
	compressor := func(o *registry.Opts, rank int) func(g tensor.Vec, votes []int64) float64 {
		compress := voteScale
		if stochastic {
			stream := o.Stream(rank)
			compress = func(g tensor.Vec, votes []int64) float64 { return collective.SSDMVotesInto(votes, g, stream) }
		}
		if !errorFeedback {
			return compress
		}
		residual, corrected := tensor.New(o.Dim), tensor.New(o.Dim)
		return func(g tensor.Vec, votes []int64) float64 {
			copy(corrected, g)
			tensor.Add(corrected, residual)
			scale := compress(corrected, votes)
			for i := range residual {
				residual[i] = corrected[i] - scale*float64(votes[i])
			}
			return scale
		}
	}

	base.NewSeq = func(o *registry.Opts) (registry.UpdateRunner, error) {
		n := o.Workers
		compress := make([]func(tensor.Vec, []int64) float64, n)
		for w := range compress {
			compress[w] = compressor(o, w)
		}
		return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
			d := len(grads[0])
			// Each worker votes into its own vector, where the sign-sum
			// schedule then accumulates.
			votes := make([][]int64, n)
			scales := make([]float64, n)
			for w, g := range grads {
				votes[w] = make([]int64, d)
				scales[w] = compress[w](g, votes[w])
				c.AddCompress(w, d)
			}
			var update tensor.Vec
			if ps {
				update = tensor.New(d)
				for w := range votes {
					for i := range update {
						update[i] += scales[w] * float64(votes[w][i])
					}
				}
				tensor.Scale(update, 1/float64(n))
				collective.HubPushPull(c, collective.SignWireBytes(d), collective.DenseWireBytes(d))
			} else {
				sums, total := collective.SignSumTorus(c, o.Torus, votes, scales, o.Elias)
				update = decode(sums, total, n)
			}
			for w := range grads {
				c.AddDecompress(w, d)
			}
			c.Barrier()
			return registry.Consensus(registry.Update{Vec: update}, n)
		}, nil
	}
	base.NewRank = func(o *registry.Opts, rank int) (registry.RankRunner, error) {
		compress := compressor(o, rank)
		// A majority's consensus is the same D bits on every rank: the
		// rank keeps them in consensus until its next round and returns
		// them, as a one-bit Marsit rank does.
		consensus := new(bitvec.Vec)
		return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
			d, n := len(grad), ep.Size()
			votes := transport.GetInt64s(d)
			scale := compress(grad, votes)
			c.AddCompress(rank, d)
			var update registry.Update
			if ps {
				update.Vec = scaledSignPSRank(c, ep, votes, scale)
			} else {
				total := signSumTorusRank(c, ep, o.Torus, votes, scale, o.Elias)
				if majority {
					// Bit for bit MajorityDecode: a clear bit (a negative
					// sum) is the mean scale with its IEEE sign flipped.
					consensus.Resize(d)
					consensus.PackVotes(votes)
					update = registry.Update{Signs: consensus, Scale: total / float64(n)}
				} else {
					update.Vec = linearDecode(grad, votes, total, n)
				}
			}
			transport.PutInt64s(votes)
			c.AddDecompress(rank, d)
			ClockBarrier(c, ep)
			return update
		}, nil
	}
	return base
}

// voteScale is the deterministic signSGD compression every sign
// transport shares, in one pass over the gradient: votes[i] is −1 where
// g[i] < 0 and +1 everywhere else (tensor.Sign's convention: ±0 and NaN
// vote +1), and the returned scale is the ℓ1/D magnitude, summed in index
// order like tensor.Norm1. The comparison lands in an integer, so the
// coin-toss sign of a gradient element costs no branch.
func voteScale(g tensor.Vec, votes []int64) float64 {
	votes = votes[:len(g)]
	var l1 float64
	for i, x := range g {
		var neg int64
		if x < 0 {
			neg = 1
		}
		votes[i] = 1 - 2*neg
		l1 += math.Abs(x)
	}
	return l1 / float64(len(g))
}

// linearDecode is the decode of stochastic or error-corrected sign
// sums, where a majority vote would discard the magnitudes the signs
// encode: mean scale × mean sign, per coordinate, written into and
// returning out.
func linearDecode(out tensor.Vec, sums []int64, totalScale float64, workers int) tensor.Vec {
	meanScale := totalScale / float64(workers)
	for i, s := range sums {
		out[i] = meanScale * float64(s) / float64(workers)
	}
	return out
}
