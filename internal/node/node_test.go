package node_test

import (
	"errors"
	"math"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"marsit/internal/node"
	"marsit/internal/obs"
)

// launch runs one node.Run per rank concurrently — each rank builds its
// own single-rank TCP fabric, exactly the multi-process shape — and
// returns the per-rank summaries and errors. Fabric addresses come from
// reserve-then-rebind, which can collide with other test binaries'
// ephemeral listeners, so rendezvous-stage failures ("tcp:" errors)
// retry the whole fleet on fresh ports.
func launch(t *testing.T, n int, mutate func(rank int, cfg *node.Config)) ([]*node.Summary, []error) {
	t.Helper()
	const attempts = 3
	var sums []*node.Summary
	var errs []error
	for try := 0; try < attempts; try++ {
		cfgs := fleetConfigs(t, n, mutate)
		sums = make([]*node.Summary, n)
		errs = make([]error, n)
		var wg sync.WaitGroup
		wg.Add(n)
		for r := 0; r < n; r++ {
			go func(rank int) {
				defer wg.Done()
				sums[rank], errs[rank] = node.Run(cfgs[rank])
			}(r)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("node fleet did not finish")
		}
		rendezvousFlake := false
		for _, err := range errs {
			if err != nil && strings.Contains(err.Error(), "tcp:") {
				rendezvousFlake = true
			}
		}
		if !rendezvousFlake {
			return sums, errs
		}
		t.Logf("attempt %d hit a rendezvous port collision, retrying: %v", try, errs)
	}
	t.Fatalf("fleet rendezvous kept failing after %d attempts: %v", attempts, errs)
	return nil, nil
}

// awaitGoroutines fails the test unless the process's goroutine count
// falls back to before within two seconds: a fleet that has returned
// from every node.Run must leave no reader, pump or linger behind.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := goruntime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:goruntime.Stack(buf, true)]
			t.Fatalf("%d goroutines left after the fleet returned, %d before it started:\n%s", n, before, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fleetConfigs(t *testing.T, n int, mutate func(rank int, cfg *node.Config)) []node.Config {
	t.Helper()
	addrs := reserveAddrs(t, n)
	cfgs := make([]node.Config, n)
	for r := 0; r < n; r++ {
		cfgs[r] = node.Config{
			Rank:        r,
			Addrs:       addrs,
			Collective:  node.CollectiveMarsit,
			Dim:         257,
			Rounds:      6,
			K:           3,
			GlobalLR:    0.05,
			Seed:        11,
			Check:       true,
			DialTimeout: 10 * time.Second,
		}
		if mutate != nil {
			mutate(r, &cfgs[r])
		}
	}
	return cfgs
}

// TestFourRankMarsitMatchesSequential is the acceptance check at the
// process level: a 4-rank one-bit Marsit run (mixed with full-precision
// rounds) across four separate TCP fabrics on the loopback interface
// must be bit-identical to the sequential engine — results, wire bytes
// and virtual clocks — as verified by rank 0's check protocol.
func TestFourRankMarsitMatchesSequential(t *testing.T) {
	sums, errs := launch(t, 4, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, s := range sums {
		if !s.Checked {
			t.Fatalf("rank %d not verified", r)
		}
		if s.Workers != 4 || s.Rank != r {
			t.Fatalf("rank %d summary %+v", r, s)
		}
		if s.Bytes <= 0 || s.Clock <= 0 {
			t.Fatalf("rank %d accounted nothing: %+v", r, s)
		}
	}
	// Marsit's one-bit consensus: the final update is identical everywhere.
	for r := 1; r < 4; r++ {
		for i := range sums[0].Result {
			if sums[0].Result[i] != sums[r].Result[i] {
				t.Fatalf("rank %d result diverges at %d", r, i)
			}
		}
	}
}

// TestFourRankRARMatchesSequential covers the full-precision path, pure
// one-bit Marsit (K=0), and an odd fabric size; every fleet must leave
// no goroutine behind.
func TestFourRankRARMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		n    int
		mut  func(rank int, cfg *node.Config)
	}{
		{"rar_4", 4, func(_ int, cfg *node.Config) { cfg.Collective = node.CollectiveRAR }},
		{"marsit_k0_3", 3, func(_ int, cfg *node.Config) { cfg.K = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			sums, errs := launch(t, tc.n, tc.mut)
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			for r, s := range sums {
				if !s.Checked {
					t.Fatalf("rank %d not verified", r)
				}
			}
			awaitGoroutines(t, before)
		})
	}
}

// TestCompressedFleetsMatchSequential is the process-level acceptance
// check for the compressed collectives and the PS hub actor: sign-sum
// fleets (majority signSGD and SSDM overflow, with and without Elias
// coding on the wire), the rank-0-hosted push–pull, Marsit on a 2×2
// torus and the one-bit tree must be bit-identical to the sequential
// engine — results, wire bytes and virtual clocks — as verified by rank
// 0's check protocol, across even and odd fabric sizes. The last two
// return bits from every round and make the final update a vector once.
func TestCompressedFleetsMatchSequential(t *testing.T) {
	set := func(coll string, elias bool) func(int, *node.Config) {
		return func(_ int, cfg *node.Config) {
			cfg.Collective = coll
			cfg.UseElias = elias
		}
	}
	cases := []struct {
		name string
		n    int
		mut  func(rank int, cfg *node.Config)
	}{
		{"signsum_4", 4, set(node.CollectiveSignSum, false)},
		{"signsum_elias_3", 3, set(node.CollectiveSignSum, true)},
		{"ssdm_4", 4, set(node.CollectiveSSDM, false)},
		{"ssdm_elias_3", 3, set(node.CollectiveSSDM, true)},
		{"ps_4", 4, set(node.CollectivePS, false)},
		{"ps_3", 3, set(node.CollectivePS, false)},
		{"marsit_torus_2x2", 4, func(_ int, cfg *node.Config) {
			cfg.TorusRows, cfg.TorusCols, cfg.K = 2, 2, 4
		}},
		{"onebit-tree_4", 4, set("onebit-tree", false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sums, errs := launch(t, tc.n, tc.mut)
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			for r, s := range sums {
				if !s.Checked {
					t.Fatalf("rank %d not verified", r)
				}
				if s.Bytes <= 0 || s.Clock <= 0 {
					t.Fatalf("rank %d accounted nothing: %+v", r, s)
				}
			}
			// Every collective here is a consensus schedule: the final
			// update must be identical on all ranks.
			for r := 1; r < tc.n; r++ {
				for i := range sums[0].Result {
					if sums[0].Result[i] != sums[r].Result[i] {
						t.Fatalf("rank %d result diverges at %d", r, i)
					}
				}
			}
		})
	}
}

// TestRankDeathPoisonsHub kills one worker of a PS fleet mid-run (the
// crash-fault hook closes its fabric with no farewell) and asserts the
// fabric poisons instead of hanging: the hub actor's blocked gather —
// and every surviving rank's blocked pull — must surface a transport
// error, while the dead rank reports its simulated death.
func TestRankDeathPoisonsHub(t *testing.T) {
	const n, victim = 3, 1
	_, errs := launch(t, n, func(rank int, cfg *node.Config) {
		cfg.Collective = node.CollectivePS
		cfg.Check = false
		cfg.Rounds = 4
		if rank == victim {
			cfg.DieAfterRounds = 1
		}
	})
	if !errors.Is(errs[victim], node.ErrRankDied) {
		t.Fatalf("victim rank error = %v, want ErrRankDied", errs[victim])
	}
	for r, err := range errs {
		if r == victim {
			continue
		}
		if err == nil {
			t.Fatalf("rank %d survived a dead peer without error", r)
		}
		if !strings.Contains(err.Error(), "closed") {
			t.Fatalf("rank %d error %v does not surface the poisoned fabric", r, err)
		}
	}
}

// TestRankDeathPoisonsRing is the same fault against the sign-sum ring:
// the dead rank's neighbors (and transitively the whole ring) must fail
// fast rather than deadlock.
func TestRankDeathPoisonsRing(t *testing.T) {
	const n, victim = 3, 2
	_, errs := launch(t, n, func(rank int, cfg *node.Config) {
		cfg.Collective = node.CollectiveSSDM
		cfg.Check = false
		cfg.Rounds = 5
		if rank == victim {
			cfg.DieAfterRounds = 2
		}
	})
	if !errors.Is(errs[victim], node.ErrRankDied) {
		t.Fatalf("victim rank error = %v, want ErrRankDied", errs[victim])
	}
	for r, err := range errs {
		if r != victim && err == nil {
			t.Fatalf("rank %d survived a dead peer without error", r)
		}
	}
}

// shmFleet mutates a fleet onto the shared-memory fabric. A fresh
// rendezvous dir is allocated per attempt (mutate runs sequentially,
// rank 0 first), so a port-collision retry never trips over the
// previous attempt's ring files.
func shmFleet(t *testing.T, transport string, hosts []int) func(rank int, cfg *node.Config) {
	t.Helper()
	var dir string
	return func(rank int, cfg *node.Config) {
		if rank == 0 {
			dir = t.TempDir()
		}
		cfg.Transport = transport
		cfg.ShmDir = dir
		cfg.Hosts = hosts
	}
}

// TestFourRankShmMatchesSequential is the tentpole acceptance at the
// process level: four ranks rendezvous over mmap'd rings — no sockets
// on the gradient path at all — and the run must still be bit-identical
// to the sequential engine under rank 0's check protocol.
func TestFourRankShmMatchesSequential(t *testing.T) {
	sums, errs := launch(t, 4, shmFleet(t, node.TransportSHM, nil))
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, s := range sums {
		if !s.Checked {
			t.Fatalf("rank %d not verified", r)
		}
		if s.Bytes <= 0 || s.Clock <= 0 {
			t.Fatalf("rank %d accounted nothing: %+v", r, s)
		}
	}
	for r := 1; r < 4; r++ {
		for i := range sums[0].Result {
			if sums[0].Result[i] != sums[r].Result[i] {
				t.Fatalf("rank %d result diverges at %d", r, i)
			}
		}
	}
}

// TestFourRankHybridMixedFabric models two hosts × two local ranks: the
// explicit host map sends intra-host links over shared memory and
// inter-host links over TCP, and the mixed fabric must still verify
// bit-identical. The host map is explicit because every test address is
// 127.0.0.1 — address-derived mapping would collapse to one host.
func TestFourRankHybridMixedFabric(t *testing.T) {
	sums, errs := launch(t, 4, shmFleet(t, node.TransportHybrid, []int{0, 0, 1, 1}))
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, s := range sums {
		if !s.Checked {
			t.Fatalf("rank %d not verified", r)
		}
	}
	for r := 1; r < 4; r++ {
		for i := range sums[0].Result {
			if sums[0].Result[i] != sums[r].Result[i] {
				t.Fatalf("rank %d result diverges at %d", r, i)
			}
		}
	}
}

// TestRankDeathPoisonsShmRing kills one rank of an shm fleet mid-run:
// its deferred fabric Close must poison the shared rings so blocked
// peers fail fast with a closed-fabric error instead of spinning on
// memory nobody will ever write again.
func TestRankDeathPoisonsShmRing(t *testing.T) {
	const n, victim = 3, 1
	shm := shmFleet(t, node.TransportSHM, nil)
	_, errs := launch(t, n, func(rank int, cfg *node.Config) {
		shm(rank, cfg)
		cfg.Collective = node.CollectiveSSDM
		cfg.Check = false
		cfg.Rounds = 5
		if rank == victim {
			cfg.DieAfterRounds = 2
		}
	})
	if !errors.Is(errs[victim], node.ErrRankDied) {
		t.Fatalf("victim rank error = %v, want ErrRankDied", errs[victim])
	}
	for r, err := range errs {
		if r == victim {
			continue
		}
		if err == nil {
			t.Fatalf("rank %d survived a dead peer without error", r)
		}
		if !strings.Contains(err.Error(), "closed") {
			t.Fatalf("rank %d error %v does not surface the poisoned ring", r, err)
		}
	}
}

// TestNoCheckFleetShutsDownCleanly runs a fleet without verification:
// the orderly-shutdown farewell must keep early-exiting ranks from
// poisoning peers still in their last barrier, every time, and must
// leave no goroutine behind.
func TestNoCheckFleetShutsDownCleanly(t *testing.T) {
	for i := 0; i < 5; i++ {
		before := goruntime.NumGoroutine()
		sums, errs := launch(t, 4, func(_ int, cfg *node.Config) {
			cfg.Check = false
			cfg.Rounds = 3
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("iteration %d rank %d: %v", i, r, err)
			}
		}
		for r, s := range sums {
			if s.Checked {
				t.Fatalf("iteration %d rank %d claims verification", i, r)
			}
			if s.Bytes <= 0 {
				t.Fatalf("iteration %d rank %d accounted nothing", i, r)
			}
		}
		awaitGoroutines(t, before)
	}
}

// TestCheckDetectsDivergence tampers with one rank's seed: the fabric
// assembles and runs, but rank 0's sequential replay must flag the
// mismatch and every rank must observe the failure.
func TestCheckDetectsDivergence(t *testing.T) {
	_, errs := launch(t, 3, func(rank int, cfg *node.Config) {
		cfg.Collective = node.CollectiveRAR
		if rank == 2 {
			cfg.Seed = 999 // diverges from the fabric's agreed seed
		}
	})
	if errs[0] == nil {
		t.Fatal("rank 0 did not detect the divergence")
	}
	for r := 1; r < 3; r++ {
		if errs[r] == nil {
			t.Fatalf("rank %d did not observe the failed verdict", r)
		}
	}
}

// TestValidation covers the config rejection paths.
func TestValidation(t *testing.T) {
	bad := []node.Config{
		{},
		{Addrs: []string{"127.0.0.1:0"}, Rank: 1, Dim: 4, Rounds: 1},
		{Addrs: []string{"127.0.0.1:0"}, Dim: 0, Rounds: 1},
		{Addrs: []string{"127.0.0.1:0"}, Dim: 4, Rounds: 0},
		{Addrs: []string{"127.0.0.1:0"}, Dim: 4, Rounds: 1, Collective: "no-such-collective"},
		{Addrs: []string{"127.0.0.1:0"}, Dim: 4, Rounds: 1, Collective: node.CollectiveMarsit, GlobalLR: 0},
		{Addrs: []string{"127.0.0.1:0"}, Dim: 4, Rounds: 1, Collective: "gossip", Chunks: 2},
		{Addrs: []string{"127.0.0.1:0"}, Dim: 4, Rounds: 1, Collective: "tree", TorusRows: 1, TorusCols: 1},
	}
	for i, cfg := range bad {
		if _, err := node.Run(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestValidationNamesTheFault pins where and how each fabric-shape
// rejection surfaces: validate is the only place the shm/hybrid
// rendezvous dir, the host-map length, the transport name, the torus
// shape and the rank range are checked, so each must fail before any
// dial with an error naming what is wrong.
func TestValidationNamesTheFault(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(cfg *node.Config)
		want   []string
	}{
		{"no addresses", func(cfg *node.Config) { cfg.Addrs = nil }, []string{"no addresses"}},
		{"rank out of range", func(cfg *node.Config) { cfg.Rank = 2 }, []string{"rank 2", "[0,2)"}},
		{"shm without dir", func(cfg *node.Config) { cfg.Transport = node.TransportSHM }, []string{"shm transport", "-shm-dir"}},
		{"hybrid without dir", func(cfg *node.Config) { cfg.Transport = node.TransportHybrid }, []string{"hybrid transport", "-shm-dir"}},
		{"unknown transport", func(cfg *node.Config) { cfg.Transport = "udp" }, []string{`"udp"`, "tcp, shm, hybrid"}},
		{"short host map", func(cfg *node.Config) {
			cfg.Transport, cfg.ShmDir, cfg.Hosts = node.TransportHybrid, t.TempDir(), []int{0}
		}, []string{"host map names 1 ranks", "fabric has 2"}},
		{"half torus", func(cfg *node.Config) { cfg.TorusRows = 2 }, []string{"both rows and cols", "2x0"}},
		{"torus size", func(cfg *node.Config) { cfg.TorusRows, cfg.TorusCols = 1, 3 }, []string{"torus 1x3", "fabric size 2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := node.Config{
				Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"},
				Dim:   4, Rounds: 1, GlobalLR: 0.1,
			}
			tc.mutate(&cfg)
			_, err := node.Run(cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestChunksRejectionNamesCollectiveAndCaps: asking a non-chunk-capable
// collective for pipelined hops must fail at validation time — before
// any fabric dial — with an error naming the collective and its actual
// capability set, so a misconfigured fleet diagnoses itself.
func TestChunksRejection(t *testing.T) {
	_, err := node.Run(node.Config{
		Rank: 0, Addrs: []string{"127.0.0.1:0"},
		Collective: "gossip", Dim: 8, Rounds: 1, Chunks: 3,
	})
	if err == nil {
		t.Fatal("chunked gossip accepted")
	}
	for _, want := range []string{"gossip", "chunk-pipelined", "caps:"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestSingleRankFabric: the degenerate one-process fabric still runs and
// self-verifies (everything is a local no-op collective).
func TestSingleRankFabric(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	s, err := node.Run(node.Config{
		Rank: 0, Addrs: addrs, Collective: node.CollectiveMarsit,
		Dim: 33, Rounds: 2, GlobalLR: 0.1, Seed: 3, Check: true,
		DialTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("single rank: %v", err)
	}
	if !s.Checked || len(s.Result) != 33 {
		t.Fatalf("summary %+v", s)
	}
	for _, x := range s.Result {
		if math.Abs(x) != 0.1 {
			t.Fatalf("one-bit update magnitude %v", x)
		}
	}
}

// TestCalibratedJitteredFleetStaysBitIdentical is the calibration
// harness's process-level acceptance check: a 4-rank fleet with
// -calibrate semantics and real injected send jitter must still pass
// rank 0's bit-exact check (delay moves wall clock only, never results,
// wire bytes or virtual clocks), rank 0 must render the
// predicted-vs-measured table from the gathered wall splits, and every
// rank must have measured non-zero communication wall time.
func TestCalibratedJitteredFleetStaysBitIdentical(t *testing.T) {
	// Pin a fresh registry so the Enable() inside node.Run does not leak
	// telemetry into the other tests of this binary.
	restore := obs.SetActive(obs.NewRegistry())
	defer restore()

	sums, errs := launch(t, 4, func(rank int, cfg *node.Config) {
		cfg.Calibrate = true
		cfg.Check = false // Calibrate must imply Check on its own
		cfg.Jitter = 300 * time.Microsecond
		cfg.JitterSeed = 0xca11b
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, s := range sums {
		if !s.Checked {
			t.Fatalf("rank %d not verified (Calibrate did not imply Check?)", r)
		}
		if s.Wall.Transmit() <= 0 {
			t.Fatalf("rank %d measured no communication wall time: %+v", r, s.Wall)
		}
		if s.Wall.Compute() != 0 {
			t.Fatalf("rank %d charged wall compute %v (collectives never should)", r, s.Wall.Compute())
		}
	}
	tbl := sums[0].CalibTable
	for _, want := range []string{"Calibration", "marsit", "transmit", "wall/virtual", "all"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("rank 0 calibration table missing %q:\n%s", want, tbl)
		}
	}
	for r := 1; r < 4; r++ {
		if sums[r].CalibTable != "" {
			t.Fatalf("rank %d rendered a calibration table (rank 0's job)", r)
		}
	}
}

// reserveAddrs picks n loopback addresses free at call time.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}
