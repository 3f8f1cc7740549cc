package main

import (
	"fmt"
	"os"
	gort "runtime"
	"strings"
	"time"

	"marsit/internal/bitvec"
	"marsit/internal/collective"
	"marsit/internal/collective/registry"
	"marsit/internal/compress"
	"marsit/internal/core"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/optim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/train"
	"marsit/internal/transport"
	"marsit/internal/transport/faultwrap"
	"marsit/internal/transport/jobmux"
	"marsit/internal/transport/tcp"
)

// The ladder is the layer-by-layer part of a traced run: every row
// times calls into one module's public functions, at the shapes the
// workloads use, from this directory's own code. It is the same in
// every workload's traced run, so a change in an end-to-end number can
// be set against the rungs below it without opening a profiler.

var ladderFabrics = []string{"loopback", "tcp", "shm"}

// ladderRun carries what the rows share.
type ladderRun struct {
	tr    *tracer
	res   *result
	seed  uint64
	quick bool
	dim   int // kernel rows: D of the ring workloads
	reps  int
}

// timed runs f reps times after one warm call, each call a span under
// one root span named row, and returns the median duration. prep, when
// non-nil, runs untimed before every call.
func (l *ladderRun) timed(row string, prep, f func()) time.Duration {
	root := l.tr.begin(-1, row, 0)
	defer l.tr.end(root)
	durs := make([]float64, 0, l.reps)
	for i := 0; i <= l.reps; i++ {
		if prep != nil {
			prep()
		}
		sp := l.tr.begin(root, row+"/call", i)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		l.tr.end(sp)
		if i > 0 {
			durs = append(durs, float64(d))
		}
	}
	return time.Duration(median(durs))
}

// perElem records row as the median time of f divided over n elements.
func (l *ladderRun) perElem(row string, n int, prep, f func()) {
	l.res.set(row, float64(l.timed(row, prep, f))/float64(n), l.reps)
}

func runLadder(seed uint64, nodeBin string, quick bool, tr *tracer, res *result) error {
	l := &ladderRun{tr: tr, res: res, seed: seed, quick: quick, dim: 1_000_000, reps: 7}
	if quick {
		l.dim, l.reps = 4096, 2
	}
	l.kernels()
	l.syncs()
	if err := l.seqLegs(); err != nil {
		return err
	}
	if err := l.engines(); err != nil {
		return err
	}
	if err := l.transports(); err != nil {
		return err
	}
	if err := l.training(); err != nil {
		return err
	}
	return l.fleets(nodeBin)
}

var sink float64 // keeps the compiler from eliding pure kernels

// kernels covers bitvec, rng, core.MergeSigns, compress and SSDM.
func (l *ladderRun) kernels() {
	d := l.dim
	r := rng.NewStream(l.seed, 0x1add)
	src := r.NormVec(make([]float64, d), 0, 1)
	dst := make([]float64, d)
	v, local, transient := bitvec.New(d), bitvec.New(d), bitvec.New(d)
	local.PackSigns(r.NormVec(make([]float64, d), 0, 1))
	transient.FillBernoulli(r, 0.5)

	l.perElem("bitvec.pack_ns_per_elem", d, nil, func() { v.PackSigns(src) })
	l.perElem("bitvec.unpack_ns_per_elem", d, nil, func() { v.UnpackSigns(dst) })
	l.perElem("bitvec.addsigns_ns_per_elem", d, nil, func() { v.AddSignsInto(dst) })
	l.perElem("bitvec.merge3_ns_per_elem", d, nil, func() { v.Merge3(local, transient) })
	// p = 1/4 is the ring's last merge (weights 3:1); any p but 1/2 takes
	// the per-bit path.
	l.perElem("bitvec.fill_bernoulli_ns_per_elem", d, nil, func() { transient.FillBernoulli(r, 0.25) })
	wire := make([]byte, v.MarshalBytes())
	l.perElem("bitvec.marshal_ns_per_byte", len(wire), nil, func() { v.MarshalInto(wire) })

	l.perElem("rng.bernoulli_word_ns_per_elem", d, nil, func() {
		var acc uint64
		for i := 0; i < d/64; i++ {
			acc ^= r.BernoulliWord(0.25, 64)
		}
		sink += float64(acc & 1)
	})
	l.perElem("rng.float64_ns", d, nil, func() {
		acc := 0.0
		for i := 0; i < d; i++ {
			acc += r.Float64()
		}
		sink += acc
	})
	l.perElem("rng.normvec_ns_per_elem", d, nil, func() { r.NormVec(dst, 0, 1) })

	// MergeSigns at the ring's last hop (aggregate of 3 absorbs 1): on
	// independent signs half the bits disagree, on correlated gradients
	// about a tenth.
	agg0 := bitvec.FromSigns(src)
	agg := agg0.Clone()
	reset := func() { agg.Copy(agg0) }
	l.perElem("core.merge_signs_ns_per_elem.iid", d, reset, func() { core.MergeSigns(agg, local, 3, 1, r) })
	flips := bitvec.New(d)
	flips.FillBernoulli(r, 0.1)
	near := agg0.Clone()
	near.Xor(flips)
	l.perElem("core.merge_signs_ns_per_elem.corr", d, reset, func() { core.MergeSigns(agg, near, 3, 1, r) })

	// Elias on what signsum ships: sums of four correlated ±1 signs.
	job := &parJob{dim: d, corr: true}
	grads := job.inputs(l.seed)
	sums := make([]int64, d)
	for _, g := range grads {
		for i, x := range g {
			sums[i] += int64(tensor.Sign(x))
		}
	}
	var coded []byte
	var bits int
	l.perElem("compress.elias_enc_ns_per_int", d, nil, func() { coded, bits = compress.EliasEncodeIntsBuf(sums, coded) })
	l.res.set("compress.elias_bits_per_int", float64(bits)/float64(d), d)
	decoded := make([]int64, d)
	l.perElem("compress.elias_dec_ns_per_int", d, nil, func() {
		if err := compress.EliasDecodeIntsInto(coded, decoded); err != nil {
			panic(err) // the encoder's own output
		}
	})
	l.perElem("compress.sign_ns_per_elem", d, nil, func() { sink += compress.NewSign().Compress(grads[0]).Norm })
	l.perElem("collective.ssdm_signs_ns_per_elem", d, nil, func() { sink += collective.SSDMSignsInto(dst, grads[0], r) })
}

// syncs times core.Marsit.Sync on the sequential engine at the training
// model's D, full-precision and one-bit rounds apart (K=2 alternates
// them).
func (l *ladderRun) syncs() {
	job := parJobFor("train_marsit", l.quick)
	m := core.MustNew(core.Config{Workers: workers, Dim: job.dim, K: 2, GlobalLR: 0.004, Seed: l.seed})
	c := netsim.NewCluster(workers, netsim.DefaultCostModel())
	grads := job.inputs(l.seed)
	root := l.tr.begin(-1, "core.Marsit.Sync", 0)
	var byKind [2][]float64 // 0 full precision, 1 one-bit
	for i := 0; i < 2*(l.reps+1); i++ {
		sp := l.tr.begin(root, "core.Marsit.Sync/call", i)
		t0 := time.Now()
		m.Sync(c, grads)
		d := time.Since(t0)
		l.tr.end(sp)
		if i >= 2 {
			byKind[i%2] = append(byKind[i%2], ms(d))
		}
	}
	l.tr.end(root)
	l.res.set("core.sync_fullprec_ms", median(byKind[0]), l.reps)
	l.res.set("core.sync_onebit_ms", median(byKind[1]), l.reps)
}

// seqLegs times the descriptors' sequential legs at the ring
// workloads' shape.
func (l *ladderRun) seqLegs() error {
	for _, name := range []string{"marsit", "rar"} {
		job := &parJob{dim: l.dim}
		desc, err := registry.Get(name)
		if err != nil {
			return err
		}
		run, err := desc.Seq(job.opts(member{coll: name}, l.seed))
		if err != nil {
			return err
		}
		c := netsim.NewCluster(workers, netsim.DefaultCostModel())
		grads := job.inputs(l.seed)
		row := "collective.seq_" + name + "_ms"
		l.res.set(row, ms(l.timed(row, nil, func() { run(c, grads) })), l.reps)
	}
	return nil
}

// engines covers the parallel engine from outside: what opening one
// costs, the parallel ring against its sequential leg, and the members
// of the mix_shm rotation one by one.
func (l *ladderRun) engines() error {
	ring := parJobFor("ring_marsit", l.quick)
	open := l.timed("runtime.engine_open_ms", nil, func() {
		eng, closeEng, err := openEngine(ring.fabric)
		if err != nil {
			panic(err) // loopback cannot fail to open
		}
		desc, _ := registry.Get("marsit")
		if _, err := eng.Open(desc, ring.opts(ring.members[0], l.seed)); err != nil {
			panic(err)
		}
		closeEng()
	})
	l.res.set("runtime.engine_open_ms", ms(open), l.reps)

	par, err := l.rotations(ring, "runtime.par_over_seq", nil)
	if err != nil {
		return err
	}
	l.res.set("runtime.par_over_seq", median(par)/l.res.metrics["collective.seq_marsit_ms"].value, len(par))

	mix := parJobFor("mix_shm", l.quick)
	perMember := make([][]float64, len(mix.members))
	if _, err := l.rotations(mix, "runtime.mix_members", perMember); err != nil {
		return err
	}
	for i, m := range mix.members {
		l.res.set("runtime."+m.coll+"_ms", median(perMember[i]), len(perMember[i]))
	}
	return nil
}

// rotations sets job up and runs l.reps units of it under one root
// span, returning the units' ms.
func (l *ladderRun) rotations(job *parJob, row string, perMember [][]float64) ([]float64, error) {
	in, _, err := job.setup(l.seed, l.res)
	if err != nil {
		return nil, err
	}
	defer in.close()
	root := l.tr.begin(-1, row, 0)
	defer l.tr.end(root)
	var out []float64
	for i := 0; i < l.reps; i++ {
		l.res.attempted++
		d, err := in.unit(l.tr, root, i, perMember)
		if err != nil {
			l.res.failed++
			return nil, err
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// openFabric builds a 2-rank fabric of the named kind; the returned
// function closes it and removes what it left on disk.
func openFabric(kind string) (transport.Transport, func(), error) {
	switch kind {
	case "loopback":
		f := transport.NewLoopback(2)
		return f, func() { f.Close() }, nil
	case "tcp":
		f, err := tcp.NewLocal(2)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	case "shm":
		f, rmDir, err := openSHM(2)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close(); rmDir() }, nil
	}
	return nil, nil, fmt.Errorf("unknown fabric %q", kind)
}

// pingPong bounces one payload of size bytes between ranks 0 and 1
// trips times and returns the mean round trip. Each side sends back the
// buffer it received, which is the ownership the pool contract asks
// for on every backend.
func pingPong(f transport.Transport, size, trips int) (time.Duration, error) {
	echoErr := make(chan error, 1)
	go func() {
		ep := f.Endpoint(1)
		for i := 0; i < trips; i++ {
			p, err := ep.Recv(0)
			if err == nil {
				err = ep.Send(0, p)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	ep := f.Endpoint(0)
	buf := transport.GetBuffer(size)
	t0 := time.Now()
	var err error
	for i := 0; i < trips && err == nil; i++ {
		if err = ep.Send(1, transport.Packet{Data: buf, Wire: size}); err == nil {
			var p transport.Packet
			p, err = ep.Recv(1)
			buf = p.Data
		}
	}
	d := time.Since(t0)
	if err != nil {
		// The echo side is blocked on a fabric that just failed us; closing
		// it is the caller's job, and unblocks it.
		return 0, err
	}
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return d / time.Duration(trips), nil
}

// stream pushes frames one way, rank 0 to rank 1, and returns the time
// until rank 1 has consumed the last one.
func stream(f transport.Transport, size, frames int) (time.Duration, error) {
	sinkErr := make(chan error, 1)
	go func() {
		ep := f.Endpoint(1)
		for i := 0; i < frames; i++ {
			p, err := ep.Recv(0)
			if err != nil {
				sinkErr <- err
				return
			}
			transport.PutBuffer(p.Data)
		}
		sinkErr <- nil
	}()
	ep := f.Endpoint(0)
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		if err := ep.Send(1, transport.Packet{Data: transport.GetBuffer(size), Wire: size}); err != nil {
			return 0, err
		}
	}
	err := <-sinkErr
	return time.Since(t0), err
}

// transports drives each fabric, and the two middlewares over loopback,
// through Endpoint.Send/Recv on two ranks.
func (l *ladderRun) transports() error {
	sizes := []struct {
		suffix      string
		size, trips int
	}{{"64b", 64, 2000}, {"64k", 64 << 10, 400}, {"2m", 2 << 20, 40}}
	streamFrames := 48
	if l.quick {
		for i := range sizes {
			sizes[i].trips = 20
		}
		streamFrames = 4
	}
	// fail records a fabric error met inside a timed closure.
	var failed error
	fail := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	pp := func(row string, f transport.Transport, size, trips int) {
		var rtts []float64
		l.timed(row, nil, func() {
			rtt, err := pingPong(f, size, trips)
			fail(err)
			rtts = append(rtts, float64(rtt)/float64(time.Microsecond))
		})
		l.res.set(row, median(rtts[1:]), l.reps*trips)
	}
	for _, kind := range ladderFabrics {
		p := "transport." + kind + "."
		open := l.timed(p+"open_ms", nil, func() {
			_, closeF, err := openFabric(kind)
			if fail(err); err == nil {
				closeF()
			}
		})
		if failed != nil {
			return failed
		}
		l.res.set(p+"open_ms", ms(open), l.reps)

		f, closeF, err := openFabric(kind)
		if err != nil {
			return err
		}
		var mem0, mem1 gort.MemStats
		for _, s := range sizes {
			if s.suffix == "64k" {
				gort.ReadMemStats(&mem0)
			}
			pp(p+"pingpong_us_"+s.suffix, f, s.size, s.trips)
			if s.suffix == "64k" {
				gort.ReadMemStats(&mem1)
				frames := float64(2 * s.trips * (l.reps + 1))
				l.res.set(p+"alloc_b_per_frame", float64(mem1.TotalAlloc-mem0.TotalAlloc)/frames, int(frames))
			}
		}
		frame := 2 << 20
		took := l.timed(p+"stream_mb_s", nil, func() {
			_, err := stream(f, frame, streamFrames)
			fail(err)
		})
		l.res.set(p+"stream_mb_s", float64(frame*streamFrames)/1e6/took.Seconds(), l.reps)
		closeF()
		if failed != nil {
			return fmt.Errorf("%s fabric: %w", kind, failed)
		}
	}

	mux := jobmux.New(transport.NewLoopback(2), jobmux.Config{})
	jf, err := mux.Job(1)
	if err != nil {
		return err
	}
	pp("transport.jobmux.pingpong_us_64k", jf, sizes[1].size, sizes[1].trips)
	mux.Close()
	fw := faultwrap.Wrap(transport.NewLoopback(2), faultwrap.Config{})
	pp("transport.faultwrap.pingpong_us_64k", fw, sizes[1].size, sizes[1].trips)
	fw.Close()

	// How many frames one writev carries when small frames queue up
	// behind each other; the counter lives on the fabric's obs metrics.
	restore := obs.SetActive(obs.NewRegistry())
	tf, err := tcp.NewLocal(2)
	restore()
	if err != nil {
		return err
	}
	defer tf.Close()
	root := l.tr.begin(-1, "transport.tcp.frames_per_writev", 0)
	_, err = stream(tf, 64, sizes[0].trips*4)
	l.tr.end(root)
	fail(err)
	wv := tf.FabricMetrics().WritevBatch
	l.res.set("transport.tcp.frames_per_writev", ratio(float64(wv.Sum()), float64(wv.Count())), int(wv.Count()))
	return failed
}

// ladderTrainRounds is the length of the ladder's training runs: long
// enough to pass a full-precision round and for the loss to fall.
const ladderTrainRounds = 60

// training covers nn, optim and data on the train_marsit model and
// batch, then the same job on each engine and without compression.
func (l *ladderRun) training() error {
	trainSet, testSet := trainData(l.seed, l.quick)
	r := rng.NewStream(l.seed, 0x7a12)
	model := trainModel(r)
	d := model.NumParams()
	grad := tensor.New(d)
	shard := trainSet.Shard(workers)[0]
	var xs [][]float64
	var ys []int
	batch := l.timed("data.batch_us", nil, func() { xs, ys = shard.Batch(r, trainBatch) })
	fwdBwd := l.timed("nn.fwd_bwd_ms_per_batch", nil, func() {
		for i := range xs {
			sink += model.LossGrad(xs[i], ys[i], grad)
		}
	})
	opt, err := optim.ByName("sgd", 1, d)
	if err != nil {
		return err
	}
	tensor.Scale(grad, 1e-6) // keep the repeated steps from blowing the weights up
	step := l.timed("optim.step_us", nil, func() { opt.Step(model.Params(), grad) })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	l.res.set("data.batch_us", us(batch), l.reps)
	l.res.set("nn.fwd_bwd_ms_per_batch", ms(fwdBwd), l.reps)
	l.res.set("optim.step_us", us(step), l.reps)

	rounds := ladderTrainRounds
	if l.quick {
		rounds = 3
	}
	runs := []struct {
		row    string
		method train.Method
		engine train.Engine
	}{
		{"train.step_ms_seq", train.MethodMarsit, train.EngineSeq},
		{"train.step_ms_par", train.MethodMarsit, train.EnginePar},
		{"train.step_ms_psgd", train.MethodPSGD, train.EngineSeq},
	}
	var outcomes [2]trainOutcome
	for i, run := range runs {
		sp := l.tr.begin(-1, "train.Run/"+strings.TrimPrefix(run.row, "train.step_ms_"), 0)
		l.res.attempted += rounds
		took, out, err := trainOnce(trainConfig(l.seed, run.method, run.engine, rounds, trainSet, testSet))
		l.tr.end(sp)
		if err == nil && i == 1 && out != outcomes[0] {
			err = fmt.Errorf("parallel engine gave %+v, sequential %+v", out, outcomes[0])
		}
		if err != nil {
			l.res.failed += rounds
			return fmt.Errorf("%s: %w", run.row, err)
		}
		if i < 2 {
			outcomes[i] = out
		}
		l.res.set(run.row, ms(took)/float64(rounds), rounds)
	}
	stepMs := l.res.metrics["train.step_ms_seq"].value
	computeMs := workers*(ms(fwdBwd)+ms(batch)) + ms(step)
	l.res.set("train.sync_share", 1-computeMs/stepMs, rounds)
	l.res.set("train.final_loss", outcomes[0].finalLoss, min(lossTail, rounds))
	l.res.set("train.match_rate", outcomes[0].matchRate, rounds)
	return nil
}

// fleets covers cmd/marsit-node from outside: the cost of bringing a
// fleet up, of the -check replay, and of the same fleet over shm rings.
func (l *ladderRun) fleets(nodeBin string) error {
	dim, rounds := 1_000_000, fleetCheckRounds
	if l.quick {
		dim, rounds = 4096, 2
	}
	sp := l.tr.begin(-1, "node.rendezvous_ms", 0)
	up, err := rendezvous(nodeBin, l.seed, 3, l.res)
	l.tr.end(sp)
	if err != nil {
		return err
	}
	l.res.set("node.rendezvous_ms", up*1e3, 3)

	perRound := func(row string, extra ...string) (fleetRun, error) {
		sp := l.tr.begin(-1, row, 0)
		defer l.tr.end(sp)
		l.res.attempted += rounds
		run, err := launchFleet(nodeBin, fleetArgs(dim, rounds, l.seed, extra...)...)
		if err != nil {
			l.res.failed += rounds
			return run, fmt.Errorf("%s: %w", row, err)
		}
		l.res.set(row, (run.wall.Seconds()-up)*1e3/float64(rounds), rounds)
		return run, nil
	}
	plain, err := perRound("node.fleet_round_ms.tcp")
	if err != nil {
		return err
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if _, err := perRound("node.fleet_round_ms.shm", "-transport", "shm", "-shm-dir", dir); err != nil {
		return err
	}
	sp = l.tr.begin(-1, "node.check_ms_per_round", 0)
	checked, err := checkedFleet(nodeBin, dim, rounds, l.seed, l.res)
	l.tr.end(sp)
	if err != nil {
		return err
	}
	l.res.set("node.check_ms_per_round", ms(checked.wall-plain.wall)/float64(rounds), rounds)
	return nil
}
