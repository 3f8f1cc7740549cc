package core

import (
	"marsit/internal/bitvec"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// This file registers the paper's own collective — the one-bit Marsit
// all-reduce with global compensation — with the collective registry.
// It lives here rather than in internal/runtime because both legs own
// per-round state (compensation vectors, merge streams, the K-period
// counter) that this package implements: the sequential leg is a
// Marsit instance, the per-rank leg a RankSync.

// opts is the registry's view of cfg — the fields the "marsit"
// descriptor reads — and configOf its inverse.
func (cfg Config) opts() *registry.Opts {
	return &registry.Opts{
		Workers: cfg.Workers, Dim: cfg.Dim, K: cfg.K,
		GlobalLR: cfg.GlobalLR, Torus: cfg.Torus, Seed: cfg.Seed,
	}
}

func configOf(o *registry.Opts) Config {
	return Config{
		Workers: o.Workers, Dim: o.Dim, K: o.K,
		GlobalLR: o.GlobalLR, Torus: o.Torus, Seed: o.Seed,
	}
}

// marsitDescriptor is the "marsit" registry entry.
func marsitDescriptor() registry.Descriptor {
	return registry.Descriptor{
		Name:     "marsit",
		Summary:  "one-bit Marsit all-reduce with global compensation (K-periodic full precision)",
		Topology: registry.Ring,
		Wire:     "1 bit/elem (4 B/elem every K-th round)",
		Caps:     registry.Caps{Torus: true, NeedsK: true},
		// Three rounds with a small K cover both the full-precision and
		// the one-bit path in the generated equivalence matrix.
		EquivRounds: 3,
		NewSeq: func(o *registry.Opts) (registry.SeqRunner, error) {
			m, err := New(configOf(o))
			if err != nil {
				return nil, err
			}
			return func(c *netsim.Cluster, grads []tensor.Vec) []tensor.Vec {
				gt := m.Sync(c, grads)
				outs := make([]tensor.Vec, len(grads))
				for w := range outs {
					outs[w] = gt // consensus: identical on every rank
				}
				return outs
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			rs, err := NewRankSync(configOf(o), rank)
			if err != nil {
				return nil, err
			}
			return rs.Sync, nil
		},
	}
}

func init() {
	registry.Register(marsitDescriptor())

	registry.Register(registry.Descriptor{
		Name:     "onebit-tree",
		Summary:  "one-bit sign aggregation over a binary tree with the weighted Bernoulli merge",
		Topology: registry.Tree,
		Wire:     "1 bit/elem",
		Caps:     registry.Caps{Streams: true},
		// Two rounds confirm the per-rank Bernoulli streams stay aligned
		// across synchronizations.
		EquivRounds: 2,
		NewSeq: func(o *registry.Opts) (registry.SeqRunner, error) {
			tr := topology.NewTree(o.Workers)
			streams := o.AllStreams()
			return func(c *netsim.Cluster, grads []tensor.Vec) []tensor.Vec {
				n, d := len(grads), len(grads[0])
				bits := make([]*bitvec.Vec, n)
				for w, g := range grads {
					bits[w] = bitvec.FromSigns(g)
					c.AddCompress(w, d)
				}
				OneBitTreeAllReduce(c, tr, bits, streams)
				outs := make([]tensor.Vec, n)
				for w := 0; w < n; w++ {
					outs[w] = registry.Update{Signs: bits[w], Scale: 1}.Dense()
					c.AddDecompress(w, d)
				}
				return outs
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			tr := topology.NewTree(o.Workers)
			stream := o.Stream(rank)
			// The merge runs only on this rank's goroutine and absorbs
			// children in ascending order, so the stream's draws replay
			// the sequential schedule exactly.
			merge := func(r int, agg, local *bitvec.Vec, aggWeight, localWeight int) {
				MergeSigns(agg, local, aggWeight, localWeight, stream)
			}
			// The result is the rank's bits at unit scale: the dispatcher
			// unpacks them into ±1, once for every rank that holds the
			// same bits.
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				d := len(grad)
				bits := bitvec.FromSigns(grad)
				c.AddCompress(rank, d)
				bits = runtime.OneBitTreeAllReduceRank(c, ep, tr, bits, merge)
				runtime.ClockBarrier(c, ep)
				c.AddDecompress(rank, d)
				return registry.Update{Signs: bits, Scale: 1}
			}, nil
		},
	})
}
