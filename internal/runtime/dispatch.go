package runtime

import (
	"fmt"
	"math"
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
// their state across rounds — and Run drives one round on every worker
// goroutine and turns the ranks' results into vectors.

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
// o.Workers defaults to the engine size and must match it. The
// Collective's Run returns vectors: the ranks of a consensus collective
// may share one output vector, as the sequential leg's already do.
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
// clocks are bit-identical to the descriptor's sequential leg. A dense
// rank's output is its runner's own vector. Ranks whose one-bit results
// hold the same bits and scale as rank 0's — every rank of a consensus
// such as Marsit's or a signsum majority — share one fresh vector,
// unpacked once, exactly as the sequential leg hands its one g_t to
// every rank; a rank whose bits differ gets a vector of its own. Every
// output is the caller's to keep.
func (cl *Collective) Run(c *netsim.Cluster, grads []tensor.Vec) []tensor.Vec {
	cl.e.checkShape(c, grads)
	ups := make([]registry.Update, cl.e.n)
	cl.e.run(func(rank int, ep transport.Endpoint) {
		ups[rank] = RunRank(cl.desc.Name, cl.runners[rank], c, ep, grads[rank])
	})
	return densify(ups)
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

// densify turns a round's per-rank results into vectors. A one-bit rank 0
// is unpacked once, by tensor.PartitionAligned range on min(M,
// GOMAXPROCS) lanes, into a fresh vector that every rank with the same
// bits and the same scale (bit for bit) receives; any other rank gets its
// own Dense. That is a property of the results, not of the collective:
// a dense result passes through untouched.
func densify(ups []registry.Update) []tensor.Vec {
	outs := make([]tensor.Vec, len(ups))
	u0 := ups[0]
	var shared tensor.Vec
	if u0.Signs != nil {
		shared = tensor.New(u0.Signs.Len())
		segs := tensor.PartitionAligned(len(shared), tensor.Lanes(len(ups)), 64)
		tensor.ForLanes(len(segs), func(p int, _ *tensor.Barrier) {
			lo, hi := segs[p].Lo, segs[p].Hi
			signs := u0.Signs.Slice(lo, hi)
			signs.UnpackScaled(shared[lo:hi], u0.Scale)
		})
	}
	for rank, u := range ups {
		if shared != nil && u.Signs != nil &&
			math.Float64bits(u.Scale) == math.Float64bits(u0.Scale) &&
			(u.Signs == u0.Signs || u.Signs.Equal(u0.Signs)) {
			outs[rank] = shared
			continue
		}
		outs[rank] = u.Dense()
	}
	return outs
}

// Name returns the collective's registry name.
func (cl *Collective) Name() string { return cl.desc.Name }
