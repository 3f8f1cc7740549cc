package train

import (
	"math"
	"testing"

	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// TestPSByteAccounting: PS traffic is 2·M·D·4 bytes per round for full
// precision (the Section 3.1 accounting).
func TestPSByteAccounting(t *testing.T) {
	cfg := quickCfg(MethodPSGD, TopoPS)
	cfg.Rounds = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(3*2*cfg.Workers*res.Params*4) / 1e6
	if diff := res.TotalMB - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("PS traffic %.6f MB, want %.6f MB", res.TotalMB, want)
	}
}

// TestMarsitNoCompensationFlag: the ablation flag reaches the core and
// the run still completes.
func TestMarsitNoCompensationFlag(t *testing.T) {
	cfg := quickCfg(MethodMarsit, TopoRing)
	cfg.Rounds = 20
	cfg.MarsitNoCompensation = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("ablated Marsit diverged on the quick task")
	}
}

// TestCompensationHelpsMatchRate: with compensation, Marsit's sign
// votes track the true aggregate at least as well on average as
// without it (the mechanism's purpose).
func TestCompensationAffectsTrajectory(t *testing.T) {
	run := func(noComp bool) float64 {
		cfg := quickCfg(MethodMarsit, TopoRing)
		cfg.Rounds = 60
		cfg.MarsitNoCompensation = noComp
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalAcc
	}
	withComp := run(false)
	withoutComp := run(true)
	// Not strictly ordered on every seed, but compensation must not be
	// catastrophically worse — and the trajectories must differ (the
	// flag is actually wired through).
	if withComp == withoutComp {
		t.Fatal("compensation flag had no effect on the trajectory")
	}
	if withComp < withoutComp-0.25 {
		t.Fatalf("compensation hurt badly: %v vs %v", withComp, withoutComp)
	}
}

// TestCustomCostModelAffectsTime: passing a scaled model changes
// simulated time but not learning.
func TestCustomCostModel(t *testing.T) {
	base := quickCfg(MethodPSGD, TopoRing)
	base.Rounds = 5
	slow := netsim.ScaledCostModel(1000)
	fast, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Cost = &slow
	scaled, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.TotalTime <= fast.TotalTime {
		t.Fatal("scaled cost model did not slow the simulation")
	}
	if scaled.FinalAcc != fast.FinalAcc {
		t.Fatal("cost model changed learning dynamics")
	}
	if scaled.TotalMB != fast.TotalMB {
		t.Fatal("cost model changed byte accounting")
	}
}

// TestBreakdownSumsToTotalTime: per-phase means plus idle coincide
// with the recorded totals (compute+compress+transmit == worker time
// after barriers).
func TestBreakdownConsistency(t *testing.T) {
	cfg := quickCfg(MethodMarsit, TopoRing)
	cfg.Rounds = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Breakdown.Total()
	if diff := total - res.TotalTime; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("breakdown total %v != simulated time %v", total, res.TotalTime)
	}
}

// TestMatchRateBounds: matching rate is a probability.
func TestMatchRateBounds(t *testing.T) {
	for _, m := range MethodNames() {
		cfg := quickCfg(m, TopoRing)
		cfg.Rounds = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Points {
			if p.MatchRate < 0 || p.MatchRate > 1 {
				t.Fatalf("%s: match rate %v", m, p.MatchRate)
			}
		}
	}
}

// TestIsFinite pins the subtract-and-compare divergence check to
// math.IsNaN and math.IsInf on every IEEE class it must tell apart.
func TestIsFinite(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 7, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Copysign(math.NaN(), -1),
	} {
		if got, want := isFinite(x), !math.IsNaN(x) && !math.IsInf(x, 0); got != want {
			t.Errorf("isFinite(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestLocalScaleMatchesSeparatePasses pins the trainer's one local pass
// to the three it replaced — g·(1/B), the true mean's sum, g·η_l — bit
// for bit. The batch of 3 makes 1/B inexact, so folding the multipliers
// into x·(1/B·η_l) would round differently and fail here; with the
// power-of-two batches of the other tests it would pass unnoticed.
func TestLocalScaleMatchesSeparatePasses(t *testing.T) {
	const n, batch = 1000, 3
	for _, lr := range []float64{0.3, 1} {
		r := rng.New(5)
		g, sum := r.NormVec(make(tensor.Vec, n), 0, 1), r.NormVec(make(tensor.Vec, n), 0, 1)
		wantG, wantSum := tensor.Clone(g), tensor.Clone(sum)
		tensor.Scale(wantG, 1/float64(batch))
		tensor.Add(wantSum, wantG)
		tensor.Scale(wantG, lr)
		localScale(g, sum, 1/float64(batch), lr)
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(wantG[i]) || math.Float64bits(sum[i]) != math.Float64bits(wantSum[i]) {
				t.Fatalf("lr %v [%d]: g %v sum %v, separate passes %v and %v", lr, i, g[i], sum[i], wantG[i], wantSum[i])
			}
		}
	}
}
