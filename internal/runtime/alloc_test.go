package runtime_test

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
	"marsit/internal/transport/hybrid"
	"marsit/internal/transport/shm"

	_ "marsit/internal/core"
)

// This file pins the hot collective loops' allocation behaviour: the
// per-hop scratch of the cascading and sign-sum schedules cycles
// through the shared transport pools (transport.GetBuffer/GetFloats/
// GetInt64s), so a steady-state round must not allocate per element —
// reintroducing a fresh per-hop slice would multiply the figures below
// by the segment size and fail these assertions.

// allocRun opens desc on an engine over the named fabric and returns a
// closure running one steady-state round (after a pooling warm-up),
// plus the teardown. tweak adjusts the options before the open.
func allocRun(t *testing.T, name, fabric string, workers, dim int, tweak ...func(*registry.Opts)) (func(), func()) {
	t.Helper()
	desc, err := registry.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var eng *runtime.Engine
	switch fabric {
	case "loopback":
		eng = runtime.New(workers)
	case "shm":
		f, err := shm.NewLocal(workers)
		if err != nil {
			t.Fatal(err)
		}
		eng = runtime.NewWithOwnedTransport(f)
	case "hybrid":
		f, err := hybrid.NewLocal(workers)
		if err != nil {
			t.Fatal(err)
		}
		eng = runtime.NewWithOwnedTransport(f)
	default:
		t.Fatalf("allocRun: unknown fabric %q", fabric)
	}
	c := netsim.NewCluster(workers, netsim.DefaultCostModel())
	o := &registry.Opts{Workers: workers, Dim: dim, Seed: 11, K: 3, GlobalLR: 0.01}
	for _, f := range tweak {
		f(o)
	}
	cl, err := eng.Open(desc, o)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	grads := equivtest.RandVecs(17, workers, dim)
	work := make([]tensor.Vec, workers)
	run := func() {
		for w := range work {
			work[w] = grads[w] // collectives may mutate; content is irrelevant here
		}
		cl.Run(c, work)
	}
	for i := 0; i < 3; i++ {
		run() // settle the buffer pools
	}
	return run, func() { eng.Close() }
}

// maxSteadyStateAllocs bounds the malloc count of one round of a
// ring collective on the loopback engine at M=4: engine dispatch, the
// per-rank output bookkeeping and a handful of pooled-buffer cache
// misses. It is independent of the dimension — the property under
// test — and sits far below the hop count × segment size that a
// per-hop scratch slice would reintroduce.
const maxSteadyStateAllocs = 200

func testSteadyStateAllocs(t *testing.T, name string, dim int) {
	t.Helper()
	testSteadyStateAllocsFabric(t, name, "loopback", dim)
}

func testSteadyStateAllocsFabric(t *testing.T, name, fabric string, dim int) {
	t.Helper()
	run, done := allocRun(t, name, fabric, 4, dim)
	defer done()
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("%s/%s M=4 D=%d: %.1f allocs/round", name, fabric, dim, allocs)
	if allocs > maxSteadyStateAllocs {
		t.Fatalf("%s/%s allocates %.1f times per round (cap %d): per-hop scratch is no longer pooled",
			name, fabric, allocs, maxSteadyStateAllocs)
	}
}

// TestCascadingSteadyStateAllocs pins the cascading SSDM ring: every
// hop's decompress-add-recompress runs on pooled scratch, so the
// allocation count must not scale with the dimension.
func TestCascadingSteadyStateAllocs(t *testing.T) {
	for _, dim := range []int{1 << 12, 1 << 14} {
		t.Run(fmt.Sprintf("D=%d", dim), func(t *testing.T) {
			testSteadyStateAllocs(t, "cascading", dim)
		})
	}
}

// TestMarsitSteadyStateAllocs pins the paper's one-bit ring round by
// round (with allocRun's K = 3 every third round is the full-precision
// ring, and the rounds after the warm-up are t = 3…8): mallocs under the
// same dimension-independent cap, and bytes under a cap per kind of
// round.
//
// A one-bit round may allocate at most 1.1 × 8·D bytes: one fresh
// D-float g_t, shared by every rank. Each rank's result is its consensus
// bits, which its RankSync keeps, and the engine's dispatcher unpacks
// rank 0's once for every rank whose bits match. u lives in the
// compensation vector and the packed signs in a vector the RankSync
// keeps, so what is left beside g_t is two per-hop segment vectors a
// rank, about 0.06 B/elem a rank (ExtractInto, UnmarshalInto). A g_t per
// rank, or a second D-float temporary, would fail the cap.
//
// A full-precision round returns every rank's own reduced u, a fresh
// vector the caller keeps: at most 1.1 × 8·D·M bytes.
//
// The one thing a round allocates beyond that is not its own but the
// payload pool's, and the pool counts it (obs.PoolStats). A Get that finds
// the pool empty makes sync.Pool allocate a fresh 512-byte buffer
// (poolNewBytes, with its slice header), and a Get that draws too small a
// buffer — a miss — makes GetBuffer allocate the payload, at most a
// full-precision segment of 8·D/M bytes. Without the race
// detector that is a garbage collection emptying the pool, a miss or two
// in some full-precision rounds; under it sync.Pool drops a quarter of all
// Puts on purpose and a full-precision round re-allocates up to 14 of its
// 24 payloads. So every round is held to its cap plus what its own Gets
// and misses can have cost: one assertion for both modes, every round
// decides, and there is no slack for a vector of the round's own.
func TestMarsitSteadyStateAllocs(t *testing.T) {
	const workers, k, warmRounds, poolNewBytes = 4, 3, 3, 512 + 24
	for _, dim := range []int{1 << 12, 1 << 14} {
		t.Run(fmt.Sprintf("D=%d", dim), func(t *testing.T) {
			reg := obs.NewRegistry()
			defer obs.SetActive(reg)() // active before allocRun builds the engine
			run, done := allocRun(t, "marsit", "loopback", workers, dim)
			defer done()
			oneBitBytes := uint64(1.1 * 8 * float64(dim))
			fullBytes := uint64(1.1 * 8 * float64(dim*workers))
			missBytes := uint64(8 * dim / workers)
			var before, after goruntime.MemStats
			for round := 0; round < 6; round++ {
				full := (warmRounds+round)%k == 0
				maxBytes, what := oneBitBytes, "a one-bit round (cap %d = 1.1 × 8·D, plus %d for the payload pool): more than one g_t per round, shared by every rank"
				if full {
					maxBytes, what = fullBytes, "a full-precision round (cap %d = 1.1 × 8·D·M, plus %d for the payload pool): more than every rank's own u"
				}
				gets, hits := reg.Pool.Gets.Value(), reg.Pool.Hits.Value()
				goruntime.ReadMemStats(&before)
				run()
				goruntime.ReadMemStats(&after)
				gets, hits = reg.Pool.Gets.Value()-gets, reg.Pool.Hits.Value()-hits
				allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
				poolBytes := uint64(gets)*poolNewBytes + uint64(gets-hits)*missBytes
				t.Logf("marsit/loopback M=%d D=%d round %d (full precision %v): %d allocs, %d bytes (cap %d + %d for %d pool gets, %d misses)",
					workers, dim, round, full, allocs, bytes, maxBytes, poolBytes, gets, gets-hits)
				if allocs > maxSteadyStateAllocs {
					t.Fatalf("marsit allocates %d times in a round (cap %d): per-hop scratch scales with the dimension",
						allocs, maxSteadyStateAllocs)
				}
				if bytes > maxBytes+poolBytes {
					t.Fatalf("marsit allocates %d bytes in "+what, bytes, maxBytes, poolBytes)
				}
			}
		})
	}
}

// TestPSSignSteadyStateAllocs pins the sign-majority parameter server to
// bytes that scale with D bits, not D machine words. An op allocates each
// rank's packed signs, the hub's M decoded votes and its majority vector,
// and each rank's decoded downlink: (3M+1)·D/8 bytes, 1.6·D at M = 4, plus
// about 1 KB of bookkeeping that does not grow with D (measured: 7 696
// bytes at D = 4096, 27 664 at D = 16384). The cap is 1.25 × that and in
// any case under 3·D; the per-element vote counters the hub used to keep
// (one int each, 8·D bytes) overshoot it three times over. Ops are
// measured one at a time, and the payload pool's own refills and misses
// (see TestMarsitSteadyStateAllocs; a payload here is D/8 bytes and a
// header) are the only allowance.
func TestPSSignSteadyStateAllocs(t *testing.T) {
	const workers, poolNewBytes, fixedBytes = 4, 512 + 24, 1100
	for _, dim := range []int{1 << 12, 1 << 14} {
		t.Run(fmt.Sprintf("D=%d", dim), func(t *testing.T) {
			// Collect what earlier tests left before the warm-up, not
			// during the measured ops: a collection empties the payload
			// pool, and its first Puts after one allocate the pool's own
			// per-P queues again (a few KB the pool counters do not see).
			goruntime.GC()
			goruntime.GC()
			reg := obs.NewRegistry()
			defer obs.SetActive(reg)() // active before allocRun builds the engine
			run, done := allocRun(t, "ps-sign", "loopback", workers, dim)
			defer done()
			maxBytes := uint64(1.25 * float64((3*workers+1)*dim/8+fixedBytes))
			if maxBytes >= uint64(3*dim) {
				t.Fatalf("cap of %d bytes is not under 3·D", maxBytes)
			}
			missBytes := uint64(dim/8 + 12)
			var before, after goruntime.MemStats
			for op := 0; op < 6; op++ {
				gets, hits := reg.Pool.Gets.Value(), reg.Pool.Hits.Value()
				goruntime.ReadMemStats(&before)
				run()
				goruntime.ReadMemStats(&after)
				gets, hits = reg.Pool.Gets.Value()-gets, reg.Pool.Hits.Value()-hits
				allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
				poolBytes := uint64(gets)*poolNewBytes + uint64(gets-hits)*missBytes
				t.Logf("ps-sign/loopback M=%d D=%d op %d: %d allocs, %d bytes (cap %d + %d for %d pool gets, %d misses)",
					workers, dim, op, allocs, bytes, maxBytes, poolBytes, gets, gets-hits)
				if allocs > maxSteadyStateAllocs {
					t.Fatalf("ps-sign allocates %d times in an op (cap %d)", allocs, maxSteadyStateAllocs)
				}
				if bytes > maxBytes+poolBytes {
					t.Fatalf("ps-sign allocates %d bytes in an op (cap %d = 1.25 × ((3M+1)·D/8 + %d), plus %d for the payload pool): more than its bit vectors",
						bytes, maxBytes, fixedBytes, poolBytes)
				}
			}
		})
	}
}

// TestSignSumSteadyStateAllocs pins the sign-sum ring — signsum raw and
// Elias-coded, and ssdm, which layers SSDM compression over the same
// ring — to the bytes of what it returns. A rank's votes are written once
// into a pooled []int64 that the ring then sums in place and every hop's
// payload is added or decoded straight from its bytes. signsum's majority is
// one bit a coordinate, the same on every rank: a rank packs it into a
// D-bit vector it keeps across rounds and returns, and the engine
// unpacks one 8·D-byte vector for all of them. ssdm decodes into the
// caller's gradient and returns that. So an op allocates the updates
// (signsum: 8·D bytes, one vector per consensus; ssdm none), the kept
// bits (D/8 bytes a rank for signsum, allowed for although a steady-state
// rank reuses its words) and bookkeeping that does not grow with D
// (measured: 2.0 to 2.6 KB an op). The cap is 1.25 × that and in any case
// under 8·D bytes more than the updates: one more D-word vector in an op
// — a dense majority per rank, a ±1 float vector beside the votes, or a
// fresh make([]int64, D) in place of the pooled one — fails it.
//
// Ops are measured one at a time. The payload pool's own refills and
// misses are allowed for as in TestMarsitSteadyStateAllocs. The vote pool
// keeps no such count, and under the race detector sync.Pool drops a
// quarter of all Puts on purpose, so the test stocks it before every op
// (outside the measured window): what is measured is the op against a
// warm pool, the steady state, with or without the detector.
func TestSignSumSteadyStateAllocs(t *testing.T) {
	const workers, poolNewBytes, fixedBytes = 4, 512 + 24, 2600
	for _, tc := range []struct {
		name    string
		elias   bool
		updates int // D-float vectors an op returns freshly allocated
		bits    int // D-bit vectors the ranks keep
	}{{"signsum", false, 1, workers}, {"signsum", true, 1, workers}, {"ssdm", false, 0, 0}, {"ssdm", true, 0, 0}} {
		for _, dim := range []int{1 << 12, 1 << 14} {
			t.Run(fmt.Sprintf("%s/elias=%v/D=%d", tc.name, tc.elias, dim), func(t *testing.T) {
				// Both pools hand out whatever entry comes up and allocate when
				// it is too small; two collections empty them of the other
				// sizes earlier tests left behind.
				goruntime.GC()
				goruntime.GC()
				reg := obs.NewRegistry()
				defer obs.SetActive(reg)() // active before allocRun builds the engine
				run, done := allocRun(t, tc.name, "loopback", workers, dim, func(o *registry.Opts) { o.Elias = tc.elias })
				defer done()
				maxBytes := uint64(1.25 * float64(8*dim*tc.updates+tc.bits*dim/8+fixedBytes))
				if maxBytes >= uint64(8*dim*(tc.updates+1)) {
					t.Fatalf("cap of %d bytes is not under 8·D·(%d+1)", maxBytes, tc.updates)
				}
				// A missed payload is at most a raw segment, 12 + 8·⌈D/M⌉ bytes,
				// which the allocator rounds up by less than a page.
				missBytes := uint64(12+8*(dim/workers+1)+8191) &^ 8191
				var before, after goruntime.MemStats
				for op := 0; op < 6; op++ {
					for i := 0; i < 4*workers; i++ {
						transport.PutInt64s(make([]int64, dim))
					}
					gets, hits := reg.Pool.Gets.Value(), reg.Pool.Hits.Value()
					goruntime.ReadMemStats(&before)
					run()
					goruntime.ReadMemStats(&after)
					gets, hits = reg.Pool.Gets.Value()-gets, reg.Pool.Hits.Value()-hits
					allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
					poolBytes := uint64(gets)*poolNewBytes + uint64(gets-hits)*missBytes
					t.Logf("M=%d op %d: %d allocs, %d bytes (cap %d + %d for %d pool gets, %d misses)",
						workers, op, allocs, bytes, maxBytes, poolBytes, gets, gets-hits)
					if allocs > maxSteadyStateAllocs {
						t.Fatalf("%s allocates %d times in an op (cap %d)", tc.name, allocs, maxSteadyStateAllocs)
					}
					if bytes > maxBytes+poolBytes {
						t.Fatalf("%s allocates %d bytes in an op (cap %d = 1.25 × (%d updates of 8·D + %d kept D/8 bits + %d), plus %d for the payload pool): a D-word vector beside the pooled votes",
							tc.name, bytes, maxBytes, tc.updates, tc.bits, fixedBytes, poolBytes)
					}
				}
			})
		}
	}
}

// TestRARSteadyStateAllocs pins the full-precision ring all-reduce —
// the PR 2 pooling baseline (~42 KB/op at M=4, D=1e5) must not regress
// into per-hop payload allocation.
func TestRARSteadyStateAllocs(t *testing.T) {
	testSteadyStateAllocs(t, "rar", 1<<14)
}

// TestRARForwardsFrames pins the full-precision ring's frame forwarding:
// each rank encodes one payload for the reduce-scatter (its own first
// segment) and one for the all-gather (the segment it owns), and every
// other hop sends on the frame it received. A round therefore draws
// exactly 2 buffers per rank from the payload pool at any M; encoding
// every hop's segment afresh drew 2(M−1).
func TestRARForwardsFrames(t *testing.T) {
	for _, workers := range []int{4, 8} {
		t.Run(fmt.Sprintf("M=%d", workers), func(t *testing.T) {
			reg := obs.NewRegistry()
			defer obs.SetActive(reg)()
			run, done := allocRun(t, "rar", "loopback", workers, 1<<12)
			defer done()
			gets := reg.Pool.Gets.Value()
			run()
			if gets = reg.Pool.Gets.Value() - gets; gets != int64(2*workers) {
				t.Fatalf("rar M=%d draws %d payload buffers in a round, want %d (2 per rank): a ring pass re-encodes instead of forwarding",
					workers, gets, 2*workers)
			}
		})
	}
}

// TestTreeForwardsFrames pins the tree's downlink forwarding, for floats
// and bits alike: a non-root sends on the frame it received from its
// parent, the root encodes once, and every child but a node's last gets
// one pooled copy. With one encoded uplink per non-root, a round draws
// (M−1) + 1 + Σ max(children−1, 0) payload buffers; encoding every
// downlink afresh drew 2(M−1).
func TestTreeForwardsFrames(t *testing.T) {
	for _, name := range []string{"tree", "onebit-tree"} {
		for _, workers := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/M=%d", name, workers), func(t *testing.T) {
				want := int64(workers)
				tr := topology.NewTree(workers)
				for r := 0; r < workers; r++ {
					want += int64(max(len(tr.Children(r))-1, 0))
				}
				reg := obs.NewRegistry()
				defer obs.SetActive(reg)()
				run, done := allocRun(t, name, "loopback", workers, 1<<12)
				defer done()
				gets := reg.Pool.Gets.Value()
				run()
				if gets = reg.Pool.Gets.Value() - gets; gets != want {
					t.Fatalf("%s M=%d draws %d payload buffers in a round, want %d: a downlink re-encodes instead of forwarding",
						name, workers, gets, want)
				}
			})
		}
	}
}

// TestOneBitTreeSteadyStateAllocs pins the onebit-tree per-rank leg to
// no bit vector of its own per round: a rank packs its signs into a
// vector it keeps and decodes every child and downlink frame into that
// one or a second one it keeps (bitvec.UnmarshalInto). So after the
// warm-up a round through Collective.Updates — the ranks' own results,
// nothing unpacked — allocates less than one D-bit vector in all, beside
// what the payload pool's refills and misses cost (allowed for as in
// TestMarsitSteadyStateAllocs; a payload here is D/8 bytes and a
// header). Decoding a frame into a fresh vector (bitvec.Unmarshal) or
// packing into one (bitvec.FromSigns) costs D/8 bytes each time and
// fails. Loopback, M = 4, D = 2^16.
func TestOneBitTreeSteadyStateAllocs(t *testing.T) {
	const workers, dim, poolNewBytes = 4, 1 << 16, 512 + 24
	goruntime.GC()
	goruntime.GC()
	reg := obs.NewRegistry()
	defer obs.SetActive(reg)() // active before the engine is built
	desc, err := registry.Get("onebit-tree")
	if err != nil {
		t.Fatal(err)
	}
	eng := runtime.New(workers)
	defer eng.Close()
	cl, err := eng.Open(desc, &registry.Opts{Workers: workers, Dim: dim, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := netsim.NewCluster(workers, netsim.DefaultCostModel())
	grads := equivtest.RandVecs(17, workers, dim)
	for i := 0; i < 3; i++ {
		cl.Updates(c, grads)
	}
	maxBytes, missBytes := uint64(dim/8), uint64(dim/8+4)
	var before, after goruntime.MemStats
	for round := 0; round < 6; round++ {
		gets, hits := reg.Pool.Gets.Value(), reg.Pool.Hits.Value()
		goruntime.ReadMemStats(&before)
		ups := cl.Updates(c, grads)
		goruntime.ReadMemStats(&after)
		gets, hits = reg.Pool.Gets.Value()-gets, reg.Pool.Hits.Value()-hits
		bytes := after.TotalAlloc - before.TotalAlloc
		poolBytes := uint64(gets)*poolNewBytes + uint64(gets-hits)*missBytes
		t.Logf("onebit-tree/loopback M=%d D=%d round %d: %d allocs, %d bytes (cap %d + %d for %d pool gets, %d misses)",
			workers, dim, round, after.Mallocs-before.Mallocs, bytes, maxBytes, poolBytes, gets, gets-hits)
		if bytes >= maxBytes+poolBytes {
			t.Fatalf("onebit-tree allocates %d bytes in a round (cap %d = one D-bit vector, plus %d for the payload pool): a rank builds a bit vector per round or per frame",
				bytes, maxBytes, poolBytes)
		}
		if ups[0].Signs == nil {
			t.Fatal("onebit-tree round returned no bits")
		}
	}
}

// TestShmSteadyStateAllocs holds the shared-memory fabric to the same
// bar as loopback: Send writes straight into the mmap'd ring and Recv
// copies out into a pooled buffer, so a steady-state round must not
// allocate per frame, let alone per element.
func TestShmSteadyStateAllocs(t *testing.T) {
	testSteadyStateAllocsFabric(t, "rar", "shm", 1<<14)
	testSteadyStateAllocsFabric(t, "cascading", "shm", 1<<12)
}

// TestHybridSteadyStateAllocs pins the composite fabric: per-link
// routing is a slice lookup, so hybrid adds no allocations over its
// sub-fabrics.
func TestHybridSteadyStateAllocs(t *testing.T) {
	testSteadyStateAllocsFabric(t, "rar", "hybrid", 1<<14)
}

// TestSteadyStateAllocsAfterTelemetryCycle pins the disabled fast path:
// enabling telemetry and disabling it again must restore the exact
// baseline allocation behaviour — obs.Active() back to nil means every
// hook is a nil check and nothing more. A leaked registry reference
// (say, a fabric counting against a stale registry) would show up as
// extra steady-state allocations or, worse, counters accumulating after
// disable.
func TestSteadyStateAllocsAfterTelemetryCycle(t *testing.T) {
	reg := obs.NewRegistry()
	restore := obs.SetActive(reg)
	restore() // enable → disable before the engine exists
	testSteadyStateAllocs(t, "rar", 1<<14)
	if frames, _, _ := func() (int64, int64, int64) {
		fabrics := reg.Fabrics()
		if len(fabrics) == 0 {
			return 0, 0, 0
		}
		return fabrics[0].Totals()
	}(); frames != 0 {
		t.Fatalf("disabled registry accumulated %d frames", frames)
	}
}

// TestTelemetryOnAllocsBounded bounds the enabled path: counters are
// atomics and trace events land in preallocated rings, so a traced
// round must stay within the same steady-state cap as an untraced one —
// telemetry that allocates per hop would defeat the pooling work it is
// supposed to observe.
func TestTelemetryOnAllocsBounded(t *testing.T) {
	reg := obs.NewRegistry()
	reg.AttachTracer(obs.NewTracer(4, 1<<16))
	defer obs.SetActive(reg)() // active before allocRun builds the engine
	run, done := allocRun(t, "rar", "loopback", 4, 1<<14)
	defer done()
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("rar M=4 D=%d with telemetry: %.1f allocs/round", 1<<14, allocs)
	if allocs > maxSteadyStateAllocs {
		t.Fatalf("telemetry-enabled round allocates %.1f times (cap %d): tracing is allocating per hop",
			allocs, maxSteadyStateAllocs)
	}
	if reg.Tracer().TotalEvents() == 0 {
		t.Fatal("no trace events captured: the bounded-alloc claim tested nothing")
	}
}

// TestEveryCollectiveOnDepthOneFabric runs every registered collective
// over a pathological depth-1 fabric (one buffered packet per link) for
// three rounds: each schedule must complete rather than fill every queue
// and stall, and match its sequential leg bit for bit, results and
// accounting. A regression here hangs, which the go test timeout
// converts into a failure.
func TestEveryCollectiveOnDepthOneFabric(t *testing.T) {
	const workers, dim, rounds, seed = 4, 257, 3, 31
	opts := func() *registry.Opts {
		return &registry.Opts{Workers: workers, Dim: dim, Seed: seed, K: 2, GlobalLR: 0.01}
	}
	for _, desc := range registry.All() {
		t.Run(desc.Name, func(t *testing.T) {
			seqRun, err := desc.Seq(opts())
			if err != nil {
				t.Fatal(err)
			}
			eng := runtime.NewWithOwnedTransport(transport.NewLoopbackDepth(workers, 1))
			defer eng.Close()
			cl, err := eng.Open(desc, opts())
			if err != nil {
				t.Fatal(err)
			}
			seqC := netsim.NewCluster(workers, netsim.DefaultCostModel())
			parC := netsim.NewCluster(workers, netsim.DefaultCostModel())
			for r := 0; r < rounds; r++ {
				want := seqRun(seqC, equivtest.RoundVecs(seed, r, workers, dim))
				got := cl.Run(parC, equivtest.RoundVecs(seed, r, workers, dim))
				equivtest.RequireSameVecs(t, want, got)
			}
			equivtest.RequireSameClusters(t, seqC, parC)
		})
	}
}
