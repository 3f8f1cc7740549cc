package runtime_test

import (
	"sync"
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/transport"
	"marsit/internal/transport/tcp"
)

// The TCP leg of every ported collective's equivalence matrix runs in
// equiv_test.go through the shared harness. This file keeps the
// wire-specific stress cases: the one-bit schedule (whose lockstep
// reference has no netsim counterpart), framing over payloads larger
// than a TCP segment, and the distributed clock barrier.

// newTCPEngine starts an engine whose ranks exchange messages over real
// TCP sockets on the loopback interface.
func newTCPEngine(t *testing.T, n int) *runtime.Engine {
	t.Helper()
	f, err := tcp.NewLocal(n)
	if err != nil {
		t.Fatalf("tcp fabric: %v", err)
	}
	return runtime.NewWithOwnedTransport(f)
}

// TestTCPOneBitRingEquivalence is the acceptance check for the one-bit
// Marsit ring over TCP: per-rank bits equal the lockstep sequential
// reference, all ranks reach consensus, the accounting matches the
// loopback engine exactly, and repeated runs are deterministic.
func TestTCPOneBitRingEquivalence(t *testing.T) {
	const n, d = 4, 101
	run := func(eng *runtime.Engine) ([]*bitvec.Vec, *netsim.Cluster) {
		defer eng.Close()
		bits := randBits(7, n, d)
		c := netsim.NewCluster(n, netsim.DefaultCostModel())
		oneBitAllReduce(t, eng, c, nil, bits, mergeWithStreams(99, n))
		return bits, c
	}
	tcpBits, tcpC := run(newTCPEngine(t, n))
	loopBits, loopC := run(runtime.New(n))

	want := randBits(7, n, d)
	seqOneBit(want, d, nil, rng.Streams(99, n))
	requireSameBits(t, want, tcpBits)
	requireSameBits(t, loopBits, tcpBits)
	for w := 1; w < n; w++ {
		if !tcpBits[0].Equal(tcpBits[w]) {
			t.Fatalf("rank %d disagrees with rank 0 over TCP", w)
		}
	}
	equivtest.RequireSameClusters(t, loopC, tcpC)

	again, _ := run(newTCPEngine(t, n))
	requireSameBits(t, tcpBits, again)
}

// TestTCPEngineLargePayload pushes segment payloads well past a single
// TCP segment to exercise framing over partial reads.
func TestTCPEngineLargePayload(t *testing.T) {
	const n, d = 4, 200_000
	base := equivtest.RandVecs(42, n, d)
	loopV, tcpV := equivtest.CloneVecs(base), equivtest.CloneVecs(base)
	loopC := netsim.NewCluster(n, netsim.DefaultCostModel())
	tcpC := netsim.NewCluster(n, netsim.DefaultCostModel())

	rar, err := registry.Get("rar")
	if err != nil {
		t.Fatal(err)
	}
	loop := runtime.New(n)
	defer loop.Close()
	loopRAR, err := loop.Open(rar, &registry.Opts{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	loopRAR.Run(loopC, loopV)

	eng := newTCPEngine(t, n)
	defer eng.Close()
	tcpRAR, err := eng.Open(rar, &registry.Opts{Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	tcpRAR.Run(tcpC, tcpV)

	equivtest.RequireSameVecs(t, loopV, tcpV)
	equivtest.RequireSameClusters(t, loopC, tcpC)
}

// TestClockBarrierMatchesCoordinator drives skewed per-rank clocks
// through the wire barrier — one goroutine per rank over a shared fabric
// — and checks every rank lands on the cluster maximum with the wait
// attributed to transmission, exactly like netsim's coordinator Barrier.
func TestClockBarrierMatchesCoordinator(t *testing.T) {
	const n = 5
	for _, backend := range []string{"loopback", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			seqC := netsim.NewCluster(n, netsim.DefaultCostModel())
			parC := netsim.NewCluster(n, netsim.DefaultCostModel())
			for w := 0; w < n; w++ {
				sec := float64(w+1) * 0.25
				seqC.AddCompute(w, sec)
				parC.AddCompute(w, sec)
			}
			seqC.Barrier()

			var tr transport.Transport
			if backend == "tcp" {
				f, err := tcp.NewLocal(n)
				if err != nil {
					t.Fatalf("tcp fabric: %v", err)
				}
				tr = f
			} else {
				tr = transport.NewLoopback(n)
			}
			defer tr.Close()
			var wg sync.WaitGroup
			wg.Add(n)
			for r := 0; r < n; r++ {
				go func(rank int) {
					defer wg.Done()
					runtime.ClockBarrier(parC, tr.Endpoint(rank))
				}(r)
			}
			wg.Wait()

			equivtest.RequireSameClusters(t, seqC, parC)
		})
	}
}
