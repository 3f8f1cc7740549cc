package runtime

import (
	"fmt"
	"time"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// This file is the collective dispatcher: the one entry point that runs
// a collective on the engine. Open prepares the per-rank runners once —
// stateful collectives (Marsit's compensation, SSDM streams) carry
// their state across rounds — and Updates drives one round on every
// worker goroutine, returning the ranks' results as they produced them
// (Run: as vectors).

// Collective is a registered collective opened on an engine: one
// prepared per-rank runner per worker goroutine. Stateful runners
// persist across rounds, so one Collective drives a whole multi-round
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

// Updates executes one round: every worker goroutine runs its rank's
// share over grads[rank] (which the collective may mutate) and the
// per-rank outputs are returned in rank order, in the form the ranks
// produced them — a one-bit rank's bits stay the runner's own until its
// next round (registry.Update). Results, wire bytes and α–β clocks are
// bit-identical to the descriptor's sequential leg.
func (cl *Collective) Updates(c *netsim.Cluster, grads []tensor.Vec) []registry.Update {
	cl.e.checkShape(c, grads)
	ups := make([]registry.Update, cl.e.n)
	cl.e.run(func(rank int, ep transport.Endpoint) {
		ups[rank] = RunRank(cl.desc.Name, cl.runners[rank], c, ep, grads[rank])
	})
	return ups
}

// Run is Updates with the outputs made vectors (registry.Dense): the
// ranks of a consensus such as Marsit's or a signsum majority share one
// fresh vector, unpacked once, as the sequential leg's do. Every output
// is the caller's to keep.
func (cl *Collective) Run(c *netsim.Cluster, grads []tensor.Vec) []tensor.Vec {
	return registry.Dense(cl.Updates(c, grads))
}

// RunRank runs one round of the per-rank leg run of the collective
// registered as name on rank ep.Rank(): the one per-round telemetry
// wrapper, shared by the engine's workers and a distributed rank. It
// must be called from the rank's own goroutine (the tracer's
// single-writer contract). It labels the rank's trace timeline and, with
// a calibration recorder active, times the round and records the
// measured wall split next to the cluster's virtual charges over the
// same round. The split mirrors the cost model's in-collective charges:
// transmit gets the communication spans the round's rankCtx.end calls
// summed, compress everything else (compression, decoding and the PS
// hub's fold are the model's only local in-collective charges), and
// compute stays zero — the model charges compute outside collectives.
// With telemetry off it is a direct call.
func RunRank(name string, run registry.RankRunner, c *netsim.Cluster, ep transport.Endpoint, grad tensor.Vec) registry.Update {
	rank := ep.Rank()
	if t := obs.ActiveTracer(); t != nil {
		t.SetLabel(rank, name)
		t.SetPhase(rank, "")
	}
	rec := obs.ActiveCalib()
	if rec == nil {
		return run(c, ep, grad)
	}
	rec.SetLabel(rank, name)
	rec.TakeComm(rank) // drop scratch from uncalibrated work
	before := c.PhaseBreakdown(rank)
	t0 := time.Now()
	u := run(c, ep, grad)
	total := int64(time.Since(t0))
	after := c.PhaseBreakdown(rank)
	comm := min(rec.TakeComm(rank), total)
	var wall [obs.NumCalibPhases]int64
	wall[netsim.PhaseCompress], wall[netsim.PhaseTransmit] = total-comm, comm
	var virt [obs.NumCalibPhases]float64
	for i := range virt {
		virt[i] = after[i] - before[i]
	}
	rec.ObserveRun(rank, wall, virt)
	return u
}

// Name returns the collective's registry name.
func (cl *Collective) Name() string { return cl.desc.Name }
