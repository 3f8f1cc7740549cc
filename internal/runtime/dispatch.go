package runtime

import (
	"fmt"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// This file is the collective dispatcher: the one entry point that runs
// a collective on the engine. Open prepares the per-rank runners once —
// stateful collectives (Marsit's compensation, SSDM streams) carry
// their state across rounds — and Run drives one round on every worker
// goroutine.

// Collective is a registered collective opened on an engine: one
// prepared per-rank runner per worker goroutine. Stateful runners
// persist across Run calls, so one Collective drives a whole multi-round
// job.
type Collective struct {
	e       *Engine
	desc    *registry.Descriptor
	runners []registry.RankRunner
}

// Open resolves desc against this engine: it prepares o (defaults and
// capability validation) and builds one per-rank runner per worker.
// o.Workers defaults to the engine size and must match it.
func (e *Engine) Open(desc *registry.Descriptor, o *registry.Opts) (*Collective, error) {
	if o.Workers == 0 {
		o.Workers = e.n
	}
	if o.Workers != e.n {
		return nil, fmt.Errorf("runtime: %s opened for %d workers on a %d-worker engine",
			desc.Name, o.Workers, e.n)
	}
	if err := registry.Prepare(desc, o); err != nil {
		return nil, err
	}
	cl := &Collective{e: e, desc: desc, runners: make([]registry.RankRunner, e.n)}
	for rank := range cl.runners {
		r, err := desc.NewRank(o, rank)
		if err != nil {
			return nil, err
		}
		cl.runners[rank] = r
	}
	return cl, nil
}

// Run executes one round: every worker goroutine runs its rank's share
// over grads[rank] (which the collective may mutate) and the per-rank
// outputs are returned in rank order. Results, wire bytes and α–β
// clocks are bit-identical to the descriptor's sequential leg.
func (cl *Collective) Run(c *netsim.Cluster, grads []tensor.Vec) []tensor.Vec {
	cl.e.checkShape(c, grads)
	outs := make([]tensor.Vec, cl.e.n)
	cl.e.run(func(rank int, ep transport.Endpoint) {
		// Label the rank's trace timeline from its own goroutine (the
		// tracer's single-writer contract).
		if t := obs.ActiveTracer(); t != nil {
			t.SetLabel(rank, cl.desc.Name)
			t.SetPhase(rank, "")
		}
		// With calibration on, time the round; the direct call below is
		// the disabled path, kept closure-free so the steady-state
		// allocation caps hold.
		if rec := obs.ActiveCalib(); rec != nil {
			rec.SetLabel(rank, cl.desc.Name)
			CalibStep(rec, c, rank, func() {
				outs[rank] = cl.runners[rank](c, ep, grads[rank])
			})
			return
		}
		outs[rank] = cl.runners[rank](c, ep, grads[rank])
	})
	return outs
}

// Name returns the collective's registry name.
func (cl *Collective) Name() string { return cl.desc.Name }
