package core

import (
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/topology"
)

// roundRecord is everything a round leaves behind, bit for bit: the
// update as a dense vector, every worker's compensation, and every
// worker's bytes, clock and phase breakdown.
func roundRecord(m *Marsit, c *netsim.Cluster, u registry.Update) []uint64 {
	var rec []uint64
	for _, x := range u.Dense() {
		rec = append(rec, math.Float64bits(x))
	}
	for w := range m.ranks {
		for _, x := range m.ranks[w].comp {
			rec = append(rec, math.Float64bits(x))
		}
		rec = append(rec, uint64(c.BytesSent(w)), math.Float64bits(c.Clock(w)))
		for _, x := range c.PhaseBreakdown(w) {
			rec = append(rec, math.Float64bits(x))
		}
	}
	return rec
}

// TestSyncUpdateIndependentOfGOMAXPROCS runs the sequential SyncUpdate at
// GOMAXPROCS 1, 2, 3 and 8 — one lane, lanes sharing workers and
// segments unevenly, and one lane per worker — on a ring of 4, a ring of
// 5 (five workers over two or three lanes) and a 2×2 torus, with and
// without compensation, one-bit forever and with full-precision rounds.
// It requires the same updates, compensation, bytes and clocks bit for
// bit every round, and every lane goroutine gone after the run. D = 1001
// puts segment boundaries inside words. GOMAXPROCS is set, not read from
// the machine, so a race detector run sees concurrent merges anywhere.
func TestSyncUpdateIndependentOfGOMAXPROCS(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	const d, rounds = 1001, 5
	shapes := []struct {
		name    string
		workers int
		torus   *topology.Torus
	}{
		{"ring4", 4, nil},
		{"ring5", 5, nil},
		{"torus2x2", 4, topology.NewTorus(2, 2)},
	}
	for _, sh := range shapes {
		for _, ablate := range []bool{false, true} {
			for _, k := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s_ablate=%v_K=%d", sh.name, ablate, k), func(t *testing.T) {
					var want [][]uint64
					for _, procs := range []int{1, 2, 3, 8} {
						goruntime.GOMAXPROCS(procs)
						before := goruntime.NumGoroutine()
						m := MustNew(Config{
							Workers: sh.workers, Dim: d, K: k, GlobalLR: 0.05, Torus: sh.torus,
							Seed: 7, DisableCompensation: ablate,
						})
						c := cluster(sh.workers)
						r := rng.New(99)
						var got [][]uint64
						for round := 0; round < rounds; round++ {
							u := m.SyncUpdate(c, randGrads(r, sh.workers, d))
							got = append(got, roundRecord(m, c, u))
						}
						awaitGoroutines(t, before)
						if want == nil {
							want = got
							continue
						}
						for round := range want {
							if !slices.Equal(got[round], want[round]) {
								t.Fatalf("GOMAXPROCS %d, round %d: update, compensation, bytes or clocks differ from GOMAXPROCS 1",
									procs, round)
							}
						}
					}
				})
			}
		}
	}
}

// awaitGoroutines waits until no more than want goroutines are left; a
// lane goroutine may still be returning after its join.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", goruntime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
