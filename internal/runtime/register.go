package runtime

import (
	"marsit/internal/collective"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// This file registers every collective this package implements with the
// collective registry: both execution legs of each descriptor — the
// sequential reference from internal/collective and the per-rank runner
// from this package — plus topology, capability and wire-model
// metadata. Adding a collective means implementing the two legs in its
// own file and adding one registry.Register call here (the Marsit
// one-bit schedule registers from internal/core, which owns its
// sequential state). Everything else — Engine.Open dispatch, the marsit
// facade, marsit-node, marsit-train's method resolution, CLI help text
// and the cross-engine equivalence matrix — derives from these entries.

func init() {
	registry.Register(registry.Descriptor{
		Name:     "rar",
		Summary:  "full-precision ring all-reduce (PSGD baseline)",
		Topology: registry.Ring,
		Wire:     "4 B/elem float32",
		NewSeq:   newAllReduceSeq,
		NewRank:  newAllReduceRank,
	})

	registry.Register(registry.Descriptor{
		Name:     "tar",
		Summary:  "full-precision hierarchical 2D-torus all-reduce",
		Topology: registry.Torus,
		Wire:     "4 B/elem float32",
		NewSeq:   newAllReduceSeq,
		NewRank:  newAllReduceRank,
	})

	registry.Register(SignVote(registry.Descriptor{
		Name:     "signsum",
		Summary:  "majority-vote signSGD over the sign-sum ring or torus",
		Topology: registry.Ring,
		Wire:     "ceil(log2 m)+1 bits/elem, optionally Elias-coded",
		Caps:     registry.Caps{Elias: true, Torus: true},
	}, false, false))

	registry.Register(SignVote(registry.Descriptor{
		Name:     "ssdm",
		Summary:  "SSDM (Overflow): stochastic signs with bit-width expansion",
		Topology: registry.Ring,
		Wire:     "ceil(log2 m)+1 bits/elem, optionally Elias-coded",
		Caps:     registry.Caps{Elias: true, Streams: true},
	}, true, false))

	registry.Register(registry.Descriptor{
		Name:     "cascading",
		Summary:  "cascading SSDM: decompress-add-recompress at every ring hop",
		Topology: registry.Ring,
		Wire:     "1 bit/elem + norm per hop",
		Caps:     registry.Caps{Streams: true},
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			streams := o.AllStreams()
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				collective.CascadingRing(c, grads, streams)
				return registry.Vecs(grads)
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			stream := o.Stream(rank)
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				cascadingRingRank(c, ep, grad, stream)
				ClockBarrier(c, ep)
				return registry.Update{Vec: grad}
			}, nil
		},
	})

	registry.Register(registry.Descriptor{
		Name:     "gossip",
		Summary:  "one symmetric gossip step: three-point neighbor averaging on the ring",
		Topology: registry.Ring,
		Wire:     "4 B/elem float32 to each neighbor",
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				collective.GossipAverage(c, grads)
				return registry.Vecs(grads)
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				gossipAverageRank(c, ep, grad)
				ClockBarrier(c, ep)
				return registry.Update{Vec: grad}
			}, nil
		},
	})

	registry.Register(registry.Descriptor{
		Name:     "tree",
		Summary:  "full-precision binary-tree all-reduce (reduce up, broadcast down)",
		Topology: registry.Tree,
		Wire:     "4 B/elem float32",
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			tr := topology.NewTree(o.Workers)
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				collective.TreeAllReduce(c, tr, grads)
				return registry.Vecs(grads)
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			tr := topology.NewTree(o.Workers)
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				treeAllReduceRank(c, ep, tr, grad)
				ClockBarrier(c, ep)
				return registry.Update{Vec: grad}
			}, nil
		},
	})

	registry.Register(registry.Descriptor{
		Name:     "powersgd",
		Summary:  "PowerSGD low-rank compression: two dependent ring all-reduces per round",
		Topology: registry.Ring,
		Wire:     "4 B/elem of P then Q' (rank-limited)",
		// Three rounds exercise the warm-started Q across synchronizations.
		EquivRounds: 3,
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			st := collective.NewPowerSGDRingState(powerRankOrDefault(o), o.Dim)
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				collective.PowerSGDRing(c, grads, st)
				return registry.Vecs(grads)
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			// Every rank holds a full state replica: the all-reduces leave
			// bit-identical mean matrices everywhere, so the replicas track
			// the sequential engine's single shared state exactly.
			st := collective.NewPowerSGDRingState(powerRankOrDefault(o), o.Dim)
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				powerSGDRingRank(c, ep, grad, st)
				ClockBarrier(c, ep)
				return registry.Update{Vec: grad}
			}, nil
		},
	})

	registry.Register(registry.Descriptor{
		Name:     "hier",
		Summary:  "two-level hierarchical all-reduce: intra-host rings, one delegate per host",
		Topology: registry.Torus,
		Wire:     "4 B/elem float32 (hosts = rows, local ranks = cols)",
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				collective.HierarchicalAllReduce(c, o.Torus, grads)
				return registry.Vecs(grads)
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				hierAllReduceRank(c, ep, o.Torus, grad)
				ClockBarrier(c, ep)
				return registry.Update{Vec: grad}
			}, nil
		},
	})

	registry.Register(registry.Descriptor{
		Name:     "ps",
		Summary:  "full-precision parameter-server push-pull (hub at rank 0)",
		Topology: registry.PS,
		Wire:     "4 B/elem float32 both ways",
		Caps:     registry.Caps{PSFamily: true},
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				collective.PSAllReduce(c, grads)
				return registry.Vecs(grads)
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				psAllReduceRank(c, ep, grad)
				return registry.Update{Vec: grad}
			}, nil
		},
	})

	registry.Register(registry.Descriptor{
		Name:     "ps-sign",
		Summary:  "signSGD with majority vote at the parameter server",
		Topology: registry.PS,
		Wire:     "1 bit/elem + norm both ways",
		Caps:     registry.Caps{PSFamily: true},
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				collective.SignMajorityPS(c, grads)
				return registry.Vecs(grads)
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				signMajorityPSRank(c, ep, grad)
				return registry.Update{Vec: grad}
			}, nil
		},
	})

	registry.Register(registry.Descriptor{
		Name:     "ps-ssdm",
		Summary:  "SSDM under PS: stochastic signs up, dense mean down",
		Topology: registry.PS,
		Wire:     "1 bit/elem up, 4 B/elem down",
		Caps:     registry.Caps{PSFamily: true, Streams: true},
		NewSeq: func(o *registry.Opts) (registry.UpdateRunner, error) {
			streams := o.AllStreams()
			return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
				collective.SSDMPS(c, grads, streams)
				return registry.Vecs(grads)
			}, nil
		},
		NewRank: func(o *registry.Opts, rank int) (registry.RankRunner, error) {
			stream := o.Stream(rank)
			return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
				ssdmPSRank(c, ep, grad, stream)
				return registry.Update{Vec: grad}
			}, nil
		},
	})

	registry.Register(SignVote(registry.Descriptor{
		Name:     "ps-scaledsign",
		Summary:  "norm-weighted sign push-pull under PS (train-layer exchange)",
		Topology: registry.PS,
		Wire:     "1 bit/elem up, 4 B/elem down",
		Caps:     registry.Caps{PSFamily: true},
	}, false, false))
}

// powerRankOrDefault resolves Opts.PowerRank (0 means the canonical
// PowerSGD rank 2).
func powerRankOrDefault(o *registry.Opts) int {
	if o.PowerRank > 0 {
		return o.PowerRank
	}
	return 2
}

// newAllReduceSeq and newAllReduceRank are the legs of both
// full-precision all-reduces: TAR over o.Torus, which for "rar" is nil,
// the flat ring.
func newAllReduceSeq(o *registry.Opts) (registry.UpdateRunner, error) {
	return func(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
		collective.TorusAllReduce(c, o.Torus, grads)
		return registry.Vecs(grads)
	}, nil
}

func newAllReduceRank(o *registry.Opts, rank int) (registry.RankRunner, error) {
	return func(c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
		TorusAllReduceRank(c, ep, o.Torus, grad)
		ClockBarrier(c, ep)
		return registry.Update{Vec: grad}
	}, nil
}
