package runtime

import (
	"math"

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
// collectives are its default (plain signSGD) members, and
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
// Opts.Torus is set; ± Opts.Elias, Opts.Chunks) and decode by majority
// vote — or linearly, mean scale × mean sign, once the signs are
// stochastic or error-corrected. Every rank is charged the packing and
// the decode, and the round ends in a barrier.
func SignVote(base registry.Descriptor, stochastic, errorFeedback bool) registry.Descriptor {
	ps := base.Topology == registry.PS
	decode := collective.MajorityDecode
	if stochastic || errorFeedback {
		decode = linearDecode
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

	base.NewSeq = func(o *registry.Opts) (registry.SeqRunner, error) {
		n := o.Workers
		compress := make([]func(tensor.Vec, []int64) float64, n)
		for w := range compress {
			compress[w] = compressor(o, w)
		}
		return func(c *netsim.Cluster, grads []tensor.Vec) []tensor.Vec {
			d := len(grads[0])
			// The sequential references take the signs as ±1 floats.
			votes := make([]int64, d)
			signs := make([][]float64, n)
			scales := make([]float64, n)
			for w, g := range grads {
				scales[w] = compress[w](g, votes)
				signs[w] = make([]float64, d)
				for i, v := range votes {
					signs[w][i] = float64(v)
				}
				c.AddCompress(w, d)
			}
			var update tensor.Vec
			switch {
			case ps:
				update = tensor.New(d)
				for w := range signs {
					for i := range update {
						update[i] += scales[w] * signs[w][i]
					}
				}
				tensor.Scale(update, 1/float64(n))
				up, down := make([]int, n), make([]int, n)
				for w := range up {
					up[w], down[w] = collective.SignWireBytes(d), collective.DenseWireBytes(d)
				}
				collective.HubPushPull(c, up, down)
			case o.Torus != nil:
				sums, total := collective.SignSumTorus(c, o.Torus, signs, scales, o.Elias)
				update = decode(sums, total, n)
			default:
				sums, total := collective.SignSumRing(c, signs, scales, o.Elias)
				update = decode(sums, total, n)
			}
			outs := make([]tensor.Vec, n)
			for w := range outs {
				outs[w] = update
				c.AddDecompress(w, d)
			}
			c.Barrier()
			return outs
		}, nil
	}
	base.NewRank = func(o *registry.Opts, rank int) (registry.RankRunner, error) {
		compress := compressor(o, rank)
		return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
			d := len(grad)
			votes := transport.GetInt64s(d)
			scale := compress(grad, votes)
			c.AddCompress(rank, d)
			var update tensor.Vec
			switch {
			case ps:
				update = scaledSignPSRank(c, ep, votes, scale)
			case o.Torus != nil:
				total := signSumTorusRank(c, ep, o.Torus, votes, scale, o.Elias, o.Chunks)
				update = decode(votes, total, ep.Size())
			default:
				total := signSumRingRank(c, ep, votes, scale, o.Elias, o.Chunks)
				update = decode(votes, total, ep.Size())
			}
			transport.PutInt64s(votes)
			c.AddDecompress(rank, d)
			ClockBarrier(c, ep)
			return registry.Update{Vec: update}
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
// encode: mean scale × mean sign, per coordinate.
func linearDecode(sums []int64, totalScale float64, workers int) tensor.Vec {
	meanScale := totalScale / float64(workers)
	out := make(tensor.Vec, len(sums))
	for i, s := range sums {
		out[i] = meanScale * float64(s) / float64(workers)
	}
	return out
}
