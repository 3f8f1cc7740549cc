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

// configOf is the Config a "marsit" descriptor builds its legs from:
// the fields of o it reads, and the ablation flag the registry's Opts do
// not carry.
func configOf(o *registry.Opts, disableCompensation bool) Config {
	return Config{
		Workers: o.Workers, Dim: o.Dim, K: o.K,
		GlobalLR: o.GlobalLR, Torus: o.Torus, Seed: o.Seed,
		DisableCompensation: disableCompensation,
	}
}

// MarsitDescriptor is the "marsit" collective, registered as built with
// compensation. With disableCompensation set it is the compensation
// ablation (Config.DisableCompensation), which is not registered: the
// trainer opens it as it opens any other method's descriptor.
func MarsitDescriptor(disableCompensation bool) registry.Descriptor {
	return registry.Descriptor{
		Name:     "marsit",
		Summary:  "one-bit Marsit all-reduce with global compensation (K-periodic full precision)",
		Topology: registry.Ring,
		Wire:     "1 bit/elem (4 B/elem every K-th round)",
		Caps:     registry.Caps{Torus: true, NeedsK: true},
		// Three rounds with a small K cover both the full-precision and
		// the one-bit path in the generated equivalence matrix.
		EquivRounds: 3,
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			m, err := New(configOf(o, disableCompensation))
			if err != nil {
				return nil, err
			}
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				return registry.Consensus(m.SyncUpdate(c, grads), len(grads))
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			rs, err := NewRankSync(configOf(o, disableCompensation), rank)
			if err != nil {
				return nil, err
			}
			return rs.Sync, nil
		},
	}
}

func init() {
	registry.Register(MarsitDescriptor(false))

	registry.Register(registry.Descriptor{
		Name:     "onebit-tree",
		Summary:  "one-bit sign aggregation over a binary tree with the weighted Bernoulli merge",
		Topology: registry.Tree,
		Wire:     "1 bit/elem",
		Caps:     registry.Caps{Streams: true},
		// Two rounds confirm the per-rank Bernoulli streams stay aligned
		// across synchronizations.
		EquivRounds: 2,
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			tr := topology.NewTree(o.Workers)
			streams := o.AllStreams()
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				n, d := len(grads), len(grads[0])
				bits := make([]*bitvec.Vec, n)
				for w, g := range grads {
					bits[w] = bitvec.FromSigns(g)
					c.AddCompress(w, d)
				}
				OneBitTreeAllReduce(c, tr, bits, streams)
				for w := range grads {
					c.AddDecompress(w, d)
				}
				// Every rank holds the root's consensus bits at unit scale.
				return registry.Consensus(registry.Update{Signs: bits[0], Scale: 1}, n)
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
			// The rank packs its signs into bits and decodes its peers'
			// frames into bits and spare, both kept across rounds. The
			// result is one of them at unit scale, valid until the next
			// round packs into them.
			bits, spare := bitvec.New(o.Dim), bitvec.New(o.Dim)
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				d := len(grad)
				bits.PackSigns(grad)
				c.AddCompress(rank, d)
				out := runtime.OneBitTreeAllReduceRank(c, ep, tr, bits, spare, merge)
				runtime.ClockBarrier(c, ep)
				c.AddDecompress(rank, d)
				return registry.Update{Signs: out, Scale: 1}
			}, nil
		},
	})
}
