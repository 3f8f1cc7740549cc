package runtime_test

import (
	"fmt"
	"strings"
	"testing"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
)

// TestHubRejectsLinkOverridesParallel mirrors the sequential engine's
// guard on the concurrent engine: running any PS-family descriptor on a
// cluster with per-link α–β overrides must panic out of the hub rank
// (propagated through the engine join) rather than charge clocks the
// HubSchedule cannot resolve.
func TestHubRejectsLinkOverridesParallel(t *testing.T) {
	const workers, dim = 3, 8
	d, err := registry.Get("ps")
	if err != nil {
		t.Fatal(err)
	}
	c := netsim.NewCluster(workers, netsim.DefaultCostModel())
	base := c.Model
	c.SetLinkCost(1, 0, netsim.LinkCost{Latency: base.Latency * 2, BytePeriod: base.BytePeriod})
	eng := runtime.New(workers)
	defer eng.Close()
	cl, err := eng.Open(d, &registry.Opts{Workers: workers, Dim: dim, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "per-link α–β overrides") {
			t.Fatalf("unexpected panic payload %q", s)
		}
	}()
	cl.Run(c, equivtest.RandVecs(3, workers, dim))
}
