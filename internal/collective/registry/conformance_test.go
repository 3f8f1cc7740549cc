package registry_test

import (
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"marsit/internal/collective/registry"
	"marsit/internal/data"
	"marsit/internal/nn"
	"marsit/internal/node"
	"marsit/internal/rng"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/train"

	// Populate the registry: runtime registers the ported collectives,
	// core the one-bit Marsit schedule.
	_ "marsit/internal/core"
)

// This file is the registry conformance suite: every registered
// descriptor must be resolvable from all three CLIs' resolution paths —
// marsit-node's -collective (a real in-process fleet, check mode),
// marsit-train's -method (a tiny training run; marsit-bench forwards
// the same method strings) — and must appear in the auto-generated
// cross-engine equivalence matrix. A registration with a missing leg
// already fails every build (registry.Register panics); a registration
// with a missing integration fails here.

// TestMatrixCoversEveryDescriptor asserts the generated equivalence
// matrix contains at least one spec per registered collective, and that
// the thirteen legacy hand-written specs all have generated successors
// (plus the marsit specs the registry added, at K = 3, 0 and 1).
func TestMatrixCoversEveryDescriptor(t *testing.T) {
	specs := equivtest.RegistrySpecs()
	have := map[string]bool{}
	for _, s := range specs {
		have[s.Name] = true
	}
	for _, d := range registry.All() {
		if !have[d.Name] {
			t.Errorf("descriptor %q has no generated equivalence spec", d.Name)
		}
	}
	// The full expected matrix: a drifting generator (lost elias or
	// torus legs) fails loudly here.
	want := []string{
		"rar", "tar", "cascading", "ps", "ps-sign", "ps-ssdm", "ps-scaledsign",
		"signsum", "signsum-torus", "signsum-elias", "signsum-elias-torus",
		"ssdm", "ssdm-elias",
		"marsit", "marsit-torus", "marsit-k0", "marsit-torus-k0", "marsit-k1", "marsit-torus-k1",
		"gossip", "tree", "onebit-tree", "powersgd", "hier",
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("equivalence matrix lost the %q leg", name)
		}
	}
	if len(specs) != len(want) {
		names := make([]string, 0, len(specs))
		for _, s := range specs {
			names = append(names, s.Name)
		}
		t.Errorf("matrix has %d specs, want %d: %v", len(specs), len(want), names)
	}
}

// TestPaperMethodsResolveThroughRegistry asserts every paper method ×
// topology combination train accepts maps to a registered collective.
func TestPaperMethodsResolveThroughRegistry(t *testing.T) {
	for _, m := range train.MethodNames() {
		for _, topo := range []train.Topo{train.TopoRing, train.TopoTorus, train.TopoPS} {
			name, ok := train.CollectiveFor(m, topo)
			if !ok {
				continue // invalid combo (cascading-torus, marsit-ps)
			}
			if _, err := registry.Get(name); err != nil {
				t.Errorf("method %s on %s maps to unknown collective %q", m, topo, name)
			}
		}
	}
}

// TestEveryDescriptorRunsDistributed is marsit-node's resolution leg:
// each registered collective runs a real 4-rank TCP fleet in check mode
// — rank 0 replays the run on the sequential engine and the whole
// fabric must be bit-identical. Torus-capable collectives additionally
// run a 2x2 torus fleet.
func TestEveryDescriptorRunsDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping fleet conformance")
	}
	for _, d := range registry.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			runFleet(t, func(rank int, cfg *node.Config) {
				cfg.Collective = d.Name
			})
		})
		if d.Caps.Torus {
			t.Run(d.Name+"-torus", func(t *testing.T) {
				runFleet(t, func(rank int, cfg *node.Config) {
					cfg.Collective = d.Name
					cfg.TorusRows, cfg.TorusCols = 2, 2
					cfg.UseElias = d.Caps.Elias
				})
			})
		}
	}
}

// TestEveryDescriptorTrains is marsit-train's resolution leg (and so
// marsit-bench's, which forwards the same method strings): every
// registered collective runs a tiny training job as a raw -method.
func TestEveryDescriptorTrains(t *testing.T) {
	ds := data.SyntheticMNIST(64, 17)
	trainSet, testSet := ds.Split(48)
	for _, d := range registry.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			cfg := train.Config{
				Method: train.Method(d.Name), Workers: 4, Rounds: 2, Batch: 2,
				LocalLR: 0.1, GlobalLR: 0.05, K: 2, Seed: 5,
				Model: func(r *rng.PCG) *nn.Network { return nn.NewLogReg(r, 64, 10) },
				Train: trainSet, Test: testSet,
			}
			if _, err := train.Run(cfg); err != nil {
				t.Fatalf("train -method %s: %v", d.Name, err)
			}
			// One parallel-engine smoke per descriptor keeps the raw
			// method path honest on both engines.
			cfg.Engine = train.EnginePar
			if _, err := train.Run(cfg); err != nil {
				t.Fatalf("train -method %s -engine par: %v", d.Name, err)
			}
		})
	}
}

// TestGoldenListingMatchesRegistry pins docs/collectives.golden (the
// `make list-collectives` golden, what the CLIs print) to the live
// registry, so a registration and its documentation cannot drift apart.
func TestGoldenListingMatchesRegistry(t *testing.T) {
	golden, err := os.ReadFile("../../../docs/collectives.golden")
	if err != nil {
		t.Fatalf("reading golden listing: %v", err)
	}
	if got := registry.FormatList(); string(golden) != got {
		t.Fatalf("docs/collectives.golden drifted from the registry.\n"+
			"Regenerate with: go run ./cmd/marsit-node -list-collectives > docs/collectives.golden\n"+
			"got:\n%s\nwant:\n%s", got, string(golden))
	}
}

// runFleet launches one in-process 4-rank TCP fleet with per-rank
// configs derived from mutate, in check mode, and requires every rank
// to succeed and be verified.
func runFleet(t *testing.T, mutate func(rank int, cfg *node.Config)) {
	t.Helper()
	const n = 4
	const attempts = 3
	for try := 0; try < attempts; try++ {
		addrs := reserveAddrs(t, n)
		sums := make([]*node.Summary, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		wg.Add(n)
		for r := 0; r < n; r++ {
			cfg := node.Config{
				Rank: r, Addrs: addrs, Dim: 33, Rounds: 3,
				K: 2, GlobalLR: 0.05, Seed: 23, Check: true,
				DialTimeout: 10 * time.Second,
			}
			mutate(r, &cfg)
			go func(rank int, cfg node.Config) {
				defer wg.Done()
				sums[rank], errs[rank] = node.Run(cfg)
			}(r, cfg)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("fleet did not finish")
		}
		flake := false
		for _, err := range errs {
			if err != nil && strings.Contains(err.Error(), "tcp:") {
				flake = true
			}
		}
		if flake {
			t.Logf("attempt %d hit a rendezvous port collision, retrying: %v", try, errs)
			continue
		}
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
			if !sums[r].Checked {
				t.Fatalf("rank %d not verified", r)
			}
		}
		if sums[0].PhaseTable == "" {
			t.Fatal("rank 0 produced no phase table")
		}
		return
	}
	t.Fatalf("fleet rendezvous kept failing after %d attempts", attempts)
}

// reserveAddrs picks n loopback addresses free at call time.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}
