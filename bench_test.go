// Package marsit's root benchmarks regenerate every table and figure
// of the paper's evaluation through the experiment registry, and
// report headline metrics (accuracy, simulated seconds, megabytes) as
// custom benchmark outputs. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the quick-scale experiment; `cmd/marsit-bench
// -scale full` produces the paper-proportioned versions.
package marsit

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"marsit/internal/collective"
	"marsit/internal/collective/registry"
	"marsit/internal/experiments"
	"marsit/internal/rng"
	"marsit/internal/tensor"
)

func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	var out *experiments.Output
	for i := 0; i < b.N; i++ {
		var err error
		out, err = experiments.Run(id, experiments.Quick)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	if out == nil || len(out.Tables) == 0 {
		b.Fatalf("%s produced no tables", id)
	}
	b.ReportMetric(float64(len(out.Tables[0].Rows)), "rows")
	if b.N == 1 && testing.Verbose() {
		b.Log("\n" + out.Text)
	}
}

// BenchmarkTable1 regenerates Table 1 (cascading vs no compression,
// M ∈ {3, 8}).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig1a regenerates Figure 1a (per-iteration time breakdown
// of five schemes).
func BenchmarkFig1a(b *testing.B) { benchExperiment(b, "fig1a") }

// BenchmarkFig1b regenerates Figure 1b (matching rate vs iteration).
func BenchmarkFig1b(b *testing.B) { benchExperiment(b, "fig1b") }

// BenchmarkFig3 regenerates Figure 3 (the K sweep: accuracy curves and
// the time/accuracy/bits table).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkTable2 regenerates Table 2 (Top-1 accuracy, six methods
// across the model/dataset analogues).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig4a regenerates Figure 4a (accuracy vs time).
func BenchmarkFig4a(b *testing.B) { benchExperiment(b, "fig4a") }

// BenchmarkFig4b regenerates Figure 4b (accuracy vs communication MB).
func BenchmarkFig4b(b *testing.B) { benchExperiment(b, "fig4b") }

// BenchmarkFig5 regenerates Figure 5 (time breakdown under TAR and
// RAR).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkRemark regenerates the appendix deviation comparison
// (Theorems 2–3).
func BenchmarkRemark(b *testing.B) { benchExperiment(b, "remark") }

// BenchmarkAblation runs the compensation and Elias-coding ablations.
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkSyncOneBit measures the core primitive: one Marsit one-bit
// synchronization over the facade API (M=8, D=16384).
func BenchmarkSyncOneBit(b *testing.B) {
	const workers, dim = 8, 1 << 14
	sync := MustNew(Config{Workers: workers, Dim: dim, K: 0, GlobalLR: 0.01, Seed: 1})
	cluster := NewCluster(workers)
	r := rng.New(3)
	grads := make([]Vec, workers)
	for w := range grads {
		grads[w] = r.NormVec(make(Vec, dim), 0, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sync.Sync(cluster, grads)
	}
}

// ---------------------------------------------------------------------------
// Execution-engine benchmarks: concurrent engine vs the sequential
// lock-step loop on the hot collectives. Each benchmark times the
// parallel path and reports the sequential baseline and the resulting
// speedup (seq-ns/op ÷ par-ns/op; > 1 means the goroutine engine wins)
// as custom metrics. Run with:
//
//	go test -run '^$' -bench BenchmarkEngine -benchmem .
//
// Payload-buffer pooling (transport.GetBuffer/PutBuffer): the ring hops
// recycle their encode/receive buffers through a shared sync.Pool, which
// on this machine cut the M=4, D=1e5 full-precision ring from ~4.92 MB/op
// to ~42 KB/op (~99% fewer payload bytes allocated; D=1e6 drops 48.2 MB
// → 0.40 MB) and ~30% ns/op. The one-bit path's B/op barely moves — its
// payloads are D/8 bytes, so per-hop bitvec scratch dominates there.
//
// Float-codec fast path (internal/runtime/codec_fast.go): profiling the
// loopback hot path (-cpuprofile over the rar benchmark) showed the
// per-element binary.LittleEndian + math.Float64bits round trips as the
// top cost — encodeFloats alone was ~29% of samples, copyFloats ~17%,
// while the loopback channel ops never registered. On little-endian
// machines the payload is the in-memory []float64 representation, so
// the codecs now reinterpret instead of re-encoding: on this machine
// the M=4, D=1e5 ring dropped 1.81 ms/op → 0.86 ms/op (2.1×)
// and D=1e6 drops 20.3 ms → 15.3 ms, single-core, bit-identical
// payloads (the equivalence matrix holds unchanged).

// reportSeqBaseline emits the speedup metrics given a sequential
// baseline measured over iters iterations.
func reportSeqBaseline(b *testing.B, seqElapsed time.Duration, iters int) {
	b.Helper()
	par := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	seq := float64(seqElapsed.Nanoseconds()) / float64(iters)
	b.ReportMetric(seq, "seq-ns/op")
	b.ReportMetric(seq/par, "speedup")
}

// baselineIters caps the untimed sequential baseline loop.
func baselineIters(n int) int {
	if n > 5 {
		return 5
	}
	return n
}

func benchEngineMarsit(b *testing.B, workers, dim int) {
	r := rng.New(19)
	grads := make([]Vec, workers)
	for w := range grads {
		grads[w] = r.NormVec(make(Vec, dim), 0, 1)
	}
	parSync := MustNew(Config{Workers: workers, Dim: dim, K: 0, GlobalLR: 0.01, Seed: 23, Parallel: true})
	defer parSync.Close()
	cluster := NewCluster(workers)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = parSync.Sync(cluster, grads)
	}
	b.StopTimer()

	iters := baselineIters(b.N)
	seqSync := MustNew(Config{Workers: workers, Dim: dim, K: 0, GlobalLR: 0.01, Seed: 23})
	seqCluster := NewCluster(workers)
	start := time.Now()
	for i := 0; i < iters; i++ {
		_ = seqSync.Sync(seqCluster, grads)
	}
	reportSeqBaseline(b, time.Since(start), iters)
}

// benchTransports are the fabric backends the engine benchmarks cover.
var benchTransports = []string{"loopback", "tcp", "shm"}

// newBenchEngine builds a concurrent engine over the named fabric.
func newBenchEngine(b *testing.B, transport string, workers int) *Engine {
	b.Helper()
	switch transport {
	case "tcp":
		eng, err := NewEngineTCP(workers)
		if err != nil {
			b.Fatalf("tcp engine: %v", err)
		}
		return eng
	case "shm":
		eng, err := NewEngineSHM(workers)
		if err != nil {
			b.Fatalf("shm engine: %v", err)
		}
		return eng
	}
	return NewEngine(workers)
}

// BenchmarkEngine measures one collective per family on the concurrent
// engine — full-precision ring (rar), the sign-sum ring with its signSGD
// compression and majority decode (signsum), cascading SSDM with its
// per-hop decompress–add–recompress (cascading) and the parameter-server
// push–pull through the rank-0 hub actor (ps) — over every fabric at
// M=4, D=1e5, against the same descriptor's sequential leg. Both legs
// come from the registry, so a collective joins the perf trajectory by
// adding its name here.
func BenchmarkEngine(b *testing.B) {
	const workers, dim = 4, 100_000
	for _, name := range []string{"rar", "signsum", "cascading", "ps"} {
		desc, err := registry.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range benchTransports {
			b.Run(name+"/"+tr, func(b *testing.B) {
				r := rng.New(37)
				work := make([]Vec, workers)
				for w := range work {
					work[w] = r.NormVec(make(Vec, dim), 0, 1)
				}
				opts := func() *registry.Opts { return &registry.Opts{Workers: workers, Dim: dim, Seed: 41} }
				cluster := NewCluster(workers)
				eng := newBenchEngine(b, tr, workers)
				defer eng.Close()
				cl, err := eng.Open(desc, opts())
				if err != nil {
					b.Fatal(err)
				}

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cl.Run(cluster, work)
				}
				b.StopTimer()

				iters := baselineIters(b.N)
				seq, err := desc.Seq(opts())
				if err != nil {
					b.Fatal(err)
				}
				seqCluster := NewCluster(workers)
				start := time.Now()
				for i := 0; i < iters; i++ {
					seq(seqCluster, work)
				}
				reportSeqBaseline(b, time.Since(start), iters)
			})
		}
	}
}

// BenchmarkEngineRARChunks measures chunk-pipelined ring hops on the
// full-precision ring all-reduce: S = 1 is the classic one-frame-per-
// hop schedule, larger S overlaps a hop's merge with the next chunk's
// transfer (results, wire bytes and virtual clocks are bit-identical
// for every S — the equivalence matrix pins it — so this benchmark is
// purely about wall clock). Speedups need real cores; on a single-CPU
// container the interesting signal is that S > 1 costs nothing.
func BenchmarkEngineRARChunks(b *testing.B) {
	const workers, dim = 4, 1_000_000
	desc, err := registry.Get("rar")
	if err != nil {
		b.Fatal(err)
	}
	for _, tr := range benchTransports {
		for _, chunks := range []int{1, 8} {
			b.Run(fmt.Sprintf("M=%d/D=%d/%s/S=%d", workers, dim, tr, chunks), func(b *testing.B) {
				r := rng.New(53)
				work := make([]Vec, workers)
				for w := range work {
					work[w] = r.NormVec(make(Vec, dim), 0, 1)
				}
				cluster := NewCluster(workers)
				eng := newBenchEngine(b, tr, workers)
				defer eng.Close()
				cl, err := eng.Open(desc, &registry.Opts{Workers: workers, Dim: dim, Chunks: chunks})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cl.Run(cluster, work)
				}
			})
		}
	}
}

// BenchmarkEngineMarsit measures the one-bit Marsit synchronization on
// the concurrent engine against the sequential core path.
func BenchmarkEngineMarsit(b *testing.B) {
	for _, workers := range []int{4, 8} {
		for _, dim := range []int{100_000, 1_000_000} {
			b.Run(fmt.Sprintf("M=%d/D=%d", workers, dim), func(b *testing.B) {
				benchEngineMarsit(b, workers, dim)
			})
		}
	}
}

// TestEngineFacade exercises marsit.NewEngine through the public API and
// cross-checks it against the sequential collective, plus the Parallel
// facade configuration.
func TestEngineFacade(t *testing.T) {
	const workers, dim = 4, 513
	r := rng.New(29)
	base := make([]Vec, workers)
	for w := range base {
		base[w] = r.NormVec(make(Vec, dim), 0, 1)
	}
	seqV := make([]Vec, workers)
	parV := make([]Vec, workers)
	for w := range base {
		seqV[w] = tensor.Clone(base[w])
		parV[w] = tensor.Clone(base[w])
	}
	seqC, parC := NewCluster(workers), NewCluster(workers)
	collective.RingAllReduce(seqC, seqV)
	eng := NewEngine(workers)
	defer eng.Close()
	rar, err := registry.Get("rar")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(parC, rar, &registry.Opts{}, parV); err != nil {
		t.Fatal(err)
	}
	for w := range seqV {
		for i := range seqV[w] {
			if seqV[w][i] != parV[w][i] {
				t.Fatalf("worker %d elem %d: seq %v, par %v", w, i, seqV[w][i], parV[w][i])
			}
		}
	}
	if seqC.TotalBytes() != parC.TotalBytes() {
		t.Fatalf("bytes: seq %d, par %d", seqC.TotalBytes(), parC.TotalBytes())
	}

	sync := MustNew(Config{Workers: workers, Dim: dim, K: 2, GlobalLR: 0.05, Seed: 4, Parallel: true})
	defer sync.Close()
	cluster := NewCluster(workers)
	for round := 0; round < 4; round++ {
		if gt := sync.Sync(cluster, base); len(gt) != dim {
			t.Fatalf("round %d: g_t dim %d", round, len(gt))
		}
	}
}

// TestFacadeQuickstart exercises the public API end to end (the
// example in the package documentation).
func TestFacadeQuickstart(t *testing.T) {
	const workers, dim = 4, 1000
	sync := MustNew(Config{Workers: workers, Dim: dim, K: 3, GlobalLR: 0.05, Seed: 2})
	cluster := NewCluster(workers)
	r := rng.New(5)
	for round := 0; round < 6; round++ {
		grads := make([]Vec, workers)
		for w := range grads {
			grads[w] = r.NormVec(make(Vec, dim), 0, 1)
		}
		gt := sync.Sync(cluster, grads)
		if len(gt) != dim {
			t.Fatalf("round %d: g_t dim %d", round, len(gt))
		}
	}
	if cluster.TotalBytes() <= 0 {
		t.Fatal("no traffic accounted")
	}
	if tensor.Norm2(sync.MeanCompensation()) < 0 {
		t.Fatal("unreachable")
	}
}

// TestFacadeTorus exercises the TAR configuration via the facade.
func TestFacadeTorus(t *testing.T) {
	tor := SquareTorus(4)
	if tor.Rows() != 2 || tor.Cols() != 2 {
		t.Fatalf("SquareTorus(4) = %dx%d", tor.Rows(), tor.Cols())
	}
	sync := MustNew(Config{Workers: 4, Dim: 64, K: 0, GlobalLR: 0.01, Torus: tor, Seed: 3})
	cluster := NewClusterWithModel(4, DefaultCostModel())
	r := rng.New(7)
	grads := make([]Vec, 4)
	for w := range grads {
		grads[w] = r.NormVec(make(Vec, 64), 0, 1)
	}
	gt := sync.Sync(cluster, grads)
	for _, x := range gt {
		if x != 0.01 && x != -0.01 {
			t.Fatalf("non-one-bit update %v", x)
		}
	}
}

// TestExperimentOutputsRender sanity-checks that every registered
// experiment id is covered by a benchmark above.
func TestExperimentOutputsRender(t *testing.T) {
	covered := map[string]bool{
		"table1": true, "fig1a": true, "fig1b": true, "fig3": true,
		"table2": true, "fig4a": true, "fig4b": true, "fig5": true,
		"remark": true, "ablation": true,
	}
	for _, id := range experiments.IDs() {
		if !covered[id] {
			t.Fatalf("experiment %q has no root benchmark", id)
		}
	}
	if len(experiments.IDs()) != len(covered) {
		t.Fatalf("benchmark list out of date: %s", strings.Join(experiments.IDs(), ","))
	}
}
