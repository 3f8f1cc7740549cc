package main

import (
	"fmt"
	"math"
	"os"
	gort "runtime"
	"time"

	"marsit/internal/calib"
	"marsit/internal/collective/registry"
	"marsit/internal/core"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/transport/shm"
)

const workers = 4

// member is one collective of an in-process job.
type member struct {
	coll  string
	elias bool
	// inPlace: the collective overwrites its inputs, so it gets a copy of
	// its own.
	inPlace bool
	// restore: its cost also depends on the input values (sign agreement,
	// magnitudes), so every round starts from a fresh copy. Dense float
	// reductions cost the same on any values and keep running on what
	// they left behind.
	restore bool
}

// parJob is a job on the parallel engine: one unit runs every member
// once, in order, on the same gradients.
type parJob struct {
	fabric  string // loopback, shm or tcp
	dim     int
	k       int
	corr    bool // correlated gradients instead of iid
	members []member
}

var mixMembers = []member{
	{coll: "signsum", elias: true},
	{coll: "cascading", inPlace: true, restore: true},
	{coll: "ps-sign", inPlace: true, restore: true},
	{coll: "onebit-tree"},
	{coll: "tar", inPlace: true},
}

// parJobFor returns the three in-process workloads and, for the two
// workloads whose synchronisation runs elsewhere (the sequential engine
// inside train.Run, other processes in the fleet), the parallel-engine
// twin a traced run profiles in their place.
func parJobFor(workload string, quick bool) *parJob {
	big, half, model := 1_000_000, 500_000, trainParams
	if quick {
		big, half, model = 4096, 4096, 4096
	}
	switch workload {
	case "ring_marsit":
		return &parJob{fabric: "loopback", dim: big, members: []member{{coll: "marsit"}}}
	case "ring_rar":
		return &parJob{fabric: "loopback", dim: big, members: []member{{coll: "rar", inPlace: true}}}
	case "mix_shm":
		return &parJob{fabric: "shm", dim: half, corr: true, members: mixMembers}
	case "train_marsit":
		return &parJob{fabric: "loopback", dim: model, k: trainK, corr: true, members: []member{{coll: "marsit"}}}
	case "fleet_tcp":
		return &parJob{fabric: "tcp", dim: big, k: fleetK, members: []member{{coll: "marsit"}}}
	}
	return nil
}

func (j *parJob) opts(m member, seed uint64) *registry.Opts {
	return &registry.Opts{Workers: workers, Dim: j.dim, Seed: seed, K: j.k, GlobalLR: 0.01, Elias: m.elias}
}

// inputs draws the per-rank gradients from seed: iid N(0,1), or
// g_w = s + 0.5·n_w around a shared direction s (about 20% pairwise
// sign disagreement, what workers on shards of one dataset see).
func (j *parJob) inputs(seed uint64) []tensor.Vec {
	out := make([]tensor.Vec, workers)
	var shared tensor.Vec
	if j.corr {
		shared = rng.NewStream(seed, 0xbe00).NormVec(make(tensor.Vec, j.dim), 0, 1)
	}
	for w := range out {
		out[w] = rng.NewStream(seed, 0xbe01+uint64(w)).NormVec(make(tensor.Vec, j.dim), 0, 1)
		if j.corr {
			tensor.Scale(out[w], 0.5)
			tensor.Add(out[w], shared)
		}
	}
	return out
}

// scratchDir makes a directory for shared-memory rings: on /dev/shm
// like the program's own default, inside the checkout's temp dir where
// that is not writable.
func scratchDir() (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "marsit-bench-"); err == nil {
		return dir, nil
	}
	return os.MkdirTemp("", "marsit-bench-")
}

// openSHM builds a shared-memory fabric hosting all of its ranks in
// this process; the returned function removes its ring files.
func openSHM(ranks int) (*shm.Fabric, func(), error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, nil, err
	}
	local := make([]int, ranks)
	for r := range local {
		local[r] = r
	}
	f, err := shm.New(shm.Config{Dir: dir, Ranks: ranks, LocalRanks: local})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return f, func() { os.RemoveAll(dir) }, nil
}

// openEngine starts a 4-rank parallel engine over fabric; the returned
// function closes it and removes what it left on disk.
func openEngine(fabric string) (*runtime.Engine, func(), error) {
	if fabric != "shm" {
		eng, err := core.NewParallelEngine(workers, core.Transport(fabric))
		if err != nil {
			return nil, nil, err
		}
		return eng, func() { eng.Close() }, nil
	}
	f, rmDir, err := openSHM(workers)
	if err != nil {
		return nil, nil, err
	}
	eng := runtime.NewWithOwnedTransport(f)
	return eng, func() { eng.Close(); rmDir() }, nil
}

// parInst is an opened job: engine, one prepared collective per member,
// and the gradients they run on.
type parInst struct {
	job      *parJob
	closeEng func()
	cls      []*runtime.Collective
	cluster  *netsim.Cluster
	pristine []tensor.Vec
	work     [][]tensor.Vec // per member; pristine itself unless the member is inPlace
	fabric   *obs.FabricMetrics
}

// open generates the inputs and brings the job up. With a registry
// active the fabric registers its counters on it, which is how a traced
// instance differs from an untraced one.
func (j *parJob) open(seed uint64) (*parInst, error) {
	in := &parInst{job: j, cluster: netsim.NewCluster(workers, netsim.DefaultCostModel())}
	in.pristine = j.inputs(seed)
	nFabrics := 0
	if reg := obs.Active(); reg != nil {
		nFabrics = len(reg.Fabrics())
	}
	eng, closeEng, err := openEngine(j.fabric)
	if err != nil {
		return nil, err
	}
	in.closeEng = closeEng
	if reg := obs.Active(); reg != nil {
		if f := reg.Fabrics(); len(f) > nFabrics {
			in.fabric = f[len(f)-1]
		}
	}
	for _, m := range j.members {
		desc, err := registry.Get(m.coll)
		if err != nil {
			closeEng()
			return nil, err
		}
		cl, err := eng.Open(desc, j.opts(m, seed))
		if err != nil {
			closeEng()
			return nil, err
		}
		in.cls = append(in.cls, cl)
		work := in.pristine
		if m.inPlace {
			work = cloneVecs(work)
		}
		in.work = append(in.work, work)
	}
	return in, nil
}

func (in *parInst) close() { in.closeEng() }

func cloneVecs(vs []tensor.Vec) []tensor.Vec {
	out := make([]tensor.Vec, len(vs))
	for i, v := range vs {
		out[i] = tensor.Clone(v)
	}
	return out
}

// guard turns a collective's panic (poisoned fabric, shape bug) into a
// failed operation.
func guard(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}

// unit runs every member once and returns the sum of the members'
// Collective.Run times (restoring inputs is the harness's cost, not the
// program's). perMember, when non-nil, receives each member's ms.
func (in *parInst) unit(tr *tracer, parent, round int, perMember [][]float64) (time.Duration, error) {
	sp := tr.begin(parent, "round", round)
	var total time.Duration
	for i, cl := range in.cls {
		if in.job.members[i].restore {
			for w, v := range in.pristine {
				copy(in.work[i][w], v)
			}
		}
		call := tr.begin(sp, "runtime.Collective.Run/"+cl.Name(), round)
		t0 := time.Now()
		err := guard(func() { cl.Run(in.cluster, in.work[i]) })
		d := time.Since(t0)
		tr.end(call)
		if err != nil {
			return total, fmt.Errorf("%s: %w", cl.Name(), err)
		}
		if perMember != nil {
			perMember[i] = append(perMember[i], ms(d))
		}
		total += d
	}
	tr.end(sp)
	return total, nil
}

// warmUnits is how many untimed units settle pools, runners and the
// collectives' own state before a window opens.
const warmUnits = 5

// setup opens the job and warms it up: what a user pays between
// deciding to synchronise and the first steady-state round.
func (j *parJob) setup(seed uint64, res *result) (*parInst, time.Duration, error) {
	t0 := time.Now()
	in, err := j.open(seed)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < warmUnits; i++ {
		res.attempted++
		if _, err := in.unit(nil, -1, i, nil); err != nil {
			res.failed++
			in.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return in, time.Since(t0), nil
}

// verifyRounds is how many rounds the replay covers: two, so that a
// job with a full-precision period also checks a one-bit round.
const verifyRounds = 2

// verify replays verifyRounds rounds of every member on a fresh
// parallel instance and on the descriptor's sequential leg from the
// same inputs, and demands bit-identical outputs, wire bytes and
// per-rank clocks. It returns the sign agreement between the last
// round's synchronised update and the true mean gradient, averaged over
// members.
func (j *parJob) verify(seed uint64, res *result) (matchRate float64, err error) {
	in, err := j.open(seed)
	if err != nil {
		return 0, err
	}
	defer in.close()
	for i, m := range j.members {
		desc, err := registry.Get(m.coll)
		if err != nil {
			return 0, err
		}
		seqRun, err := desc.Seq(j.opts(m, seed))
		if err != nil {
			return 0, err
		}
		seqC := netsim.NewCluster(workers, netsim.DefaultCostModel())
		parC := netsim.NewCluster(workers, netsim.DefaultCostModel())
		seqIn, parIn := cloneVecs(in.pristine), in.work[i]
		for round := 0; round < verifyRounds; round++ {
			res.attempted++
			mean := tensor.New(j.dim)
			for _, g := range parIn {
				tensor.Add(mean, g)
			}
			var seqOut, parOut []tensor.Vec
			err := guard(func() {
				seqOut = seqRun(seqC, seqIn)
				parOut = in.cls[i].Run(parC, parIn)
			})
			if err == nil {
				err = sameRound(seqOut, parOut, seqC, parC)
			}
			if err != nil {
				res.failed++
				return 0, fmt.Errorf("%s round %d: %w", m.coll, round, err)
			}
			if round == verifyRounds-1 {
				matchRate += tensor.MatchRate(parOut[0], mean) / float64(len(j.members))
			}
		}
	}
	return matchRate, nil
}

func sameRound(seqOut, parOut []tensor.Vec, seqC, parC *netsim.Cluster) error {
	if len(seqOut) != len(parOut) {
		return fmt.Errorf("output counts diverge: seq %d, par %d", len(seqOut), len(parOut))
	}
	for w := range seqOut {
		if len(seqOut[w]) != len(parOut[w]) {
			return fmt.Errorf("rank %d output dims diverge", w)
		}
		for i := range seqOut[w] {
			if math.Float64bits(seqOut[w][i]) != math.Float64bits(parOut[w][i]) {
				return fmt.Errorf("rank %d element %d diverges: seq %v, par %v", w, i, seqOut[w][i], parOut[w][i])
			}
		}
		if seqC.BytesSent(w) != parC.BytesSent(w) {
			return fmt.Errorf("rank %d wire bytes diverge: seq %d, par %d", w, seqC.BytesSent(w), parC.BytesSent(w))
		}
		if math.Float64bits(seqC.Clock(w)) != math.Float64bits(parC.Clock(w)) {
			return fmt.Errorf("rank %d clocks diverge: seq %v, par %v", w, seqC.Clock(w), parC.Clock(w))
		}
	}
	return nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// runPar is the untraced run of an in-process workload.
func runPar(j *parJob, seed uint64, seconds float64, res *result) error {
	if _, err := j.verify(seed, res); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	var in *parInst
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
		}
		var d time.Duration
		var err error
		if in, d, err = j.setup(seed, res); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer in.close()
	res.set("setup_s", median(setups), len(setups))

	round := 0
	unit := func() (time.Duration, error) {
		round++
		res.attempted++
		d, err := in.unit(nil, -1, round, nil)
		if err != nil {
			res.failed++
		}
		return d, err
	}
	w := &window{}
	nblocks := blocksFor(seconds)
	for b := 0; b < nblocks; b++ {
		if err := w.add(time.Duration(seconds*float64(time.Second))/time.Duration(nblocks), selfUsage, 1, unit); err != nil {
			return err
		}
	}
	w.endToEnd(res)
	res.set("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

// blocksFor splits a window into one-second blocks.
func blocksFor(seconds float64) int {
	return max(1, int(seconds))
}

// profile is the traced counterpart of runPar: an untraced and a traced
// instance of the job run alternating blocks, the traced one under an
// obs registry with tracer and calibration recorder, and the rows that
// describe the job's rounds from inside come from the traced blocks.
func profile(j *parJob, seed uint64, seconds float64, tr *tracer, res *result) error {
	match, err := j.verify(seed, res)
	if err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	res.set("collective.match_rate", match, len(j.members))

	plain, _, err := j.setup(seed, res)
	if err != nil {
		return err
	}
	defer plain.close()

	reg := obs.NewRegistry()
	obsTracer := obs.NewTracer(workers, 1<<16)
	reg.AttachTracer(obsTracer)
	rec := reg.EnsureCalib(workers)
	restore := obs.SetActive(reg)
	traced, _, err := j.setup(seed, res)
	restore()
	if err != nil {
		return err
	}
	defer traced.close()

	root := tr.begin(-1, "profile", 0)
	defer tr.end(root)
	nblocks := 4 * max(1, blocksFor(seconds)/4)
	blockLen := time.Duration(seconds * float64(time.Second) / float64(nblocks))
	var plainMs, tracedMs []float64
	// MemStats are process-wide; inside a traced block the process does
	// nothing but this job's rounds, so the deltas are summed per block.
	var mem0, mem1 gort.MemStats
	var allocBytes, mallocs, gcs uint64
	frames0, _, payload0 := fabricTotals(traced.fabric)
	gets0, hits0 := reg.Pool.Gets.Value(), reg.Pool.Hits.Value()
	calib0 := rec.Snapshot()
	bytes0, clock0 := traced.cluster.TotalBytes(), traced.cluster.Time()
	round := 0
	for b := 0; b < nblocks; b++ {
		// Plain, traced, traced, plain: a drifting machine favours neither.
		in, spans, dst := plain, (*tracer)(nil), &plainMs
		if b%4 == 1 || b%4 == 2 {
			in, spans, dst = traced, tr, &tracedMs
			restore = obs.SetActive(reg)
			gort.ReadMemStats(&mem0)
		}
		units, err := runBlock(blockLen, func() (time.Duration, error) {
			round++
			res.attempted++
			d, err := in.unit(spans, root, round, nil)
			if err != nil {
				res.failed++
			}
			return d, err
		})
		if in == traced {
			gort.ReadMemStats(&mem1)
			allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
			mallocs += mem1.Mallocs - mem0.Mallocs
			gcs += uint64(mem1.NumGC - mem0.NumGC)
			restore()
		}
		if err != nil {
			return err
		}
		*dst = append(*dst, units...)
	}

	nT := len(tracedMs)
	n := float64(nT)
	res.set("runtime.round_ms_p95", quantile(tracedMs, 0.95), nT)
	res.set("obs.trace_overhead_pct", 100*(median(tracedMs)-median(plainMs))/median(plainMs), nT)
	res.set("runtime.alloc_mb_per_round", float64(allocBytes)/1e6/n, nT)
	res.set("runtime.allocs_per_round", float64(mallocs)/n, nT)
	res.set("runtime.gc_per_100_rounds", 100*float64(gcs)/n, nT)
	frames, _, payload := fabricTotals(traced.fabric)
	res.set("transport.frames_per_round", float64(frames-frames0)/n, nT)
	res.set("transport.payload_mb_per_round", float64(payload-payload0)/1e6/n, nT)
	gets, hits := reg.Pool.Gets.Value()-gets0, reg.Pool.Hits.Value()-hits0
	res.set("transport.pool_hit_ratio", ratio(float64(hits), float64(gets)), int(gets))
	res.set("netsim.wire_mb_per_round", float64(traced.cluster.TotalBytes()-bytes0)/1e6/n, nT)
	res.set("netsim.sim_ms_per_round", (traced.cluster.Time()-clock0)*1e3/n, nT)

	// Calibration: per-rank mean wall per round in the model's compress
	// and transmit phases, and measured over predicted for each.
	var wall, virt [obs.NumCalibPhases]float64
	for _, e := range calib.Summarize(calib.Diff(calib0, rec.Snapshot())) {
		for ph, p := range e.Phases {
			wall[ph] += p.MeasuredSeconds
			virt[ph] += p.PredictedSeconds
		}
	}
	perRankRound := 1e3 / workers / n
	res.set("obs.compress_ms_per_round", wall[netsim.PhaseCompress]*perRankRound, nT)
	res.set("obs.transmit_ms_per_round", wall[netsim.PhaseTransmit]*perRankRound, nT)
	res.set("calib.compress_ratio", ratio(wall[netsim.PhaseCompress], virt[netsim.PhaseCompress]), nT)
	res.set("calib.transmit_ratio", ratio(wall[netsim.PhaseTransmit], virt[netsim.PhaseTransmit]), nT)
	var dropped int64
	for r := 0; r < workers; r++ {
		dropped += obsTracer.Dropped(r)
	}
	res.set("obs.trace_events_dropped", float64(dropped), nT)
	res.notes = append(res.notes, fmt.Sprintf(
		"derived: compress share of the traced round = %.3f (obs.compress_ms_per_round / traced p50 %.3f ms)",
		wall[netsim.PhaseCompress]*perRankRound/median(tracedMs), median(tracedMs)))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fabricTotals(fm *obs.FabricMetrics) (frames, wire, payload int64) {
	if fm == nil {
		return 0, 0, 0
	}
	return fm.Totals()
}
