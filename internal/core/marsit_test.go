package core

import (
	"fmt"
	"math"
	goruntime "runtime"
	"testing"
	"testing/quick"

	"marsit/internal/bitvec"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

func cluster(n int) *netsim.Cluster {
	return netsim.NewCluster(n, netsim.DefaultCostModel())
}

// TestMergeSignsUnbiasedPaperCase verifies Eq. (2)'s induction for the
// paper's b=1 case: merging an aggregate over a workers (k of them
// positive) with one more positive worker yields P(1) = (k+1)/(a+1).
func TestMergeSignsUnbiasedPaperCase(t *testing.T) {
	r := rng.New(1)
	const trials = 60000
	for _, tc := range []struct {
		a, k  int // aggregate weight, positives inside it
		local bool
	}{
		{1, 0, true}, {1, 1, false}, {2, 1, true}, {3, 2, false}, {7, 3, true},
	} {
		ones := 0
		for i := 0; i < trials; i++ {
			agg := bitvec.New(1)
			agg.Set(0, r.Float64() < float64(tc.k)/float64(tc.a))
			local := bitvec.New(1)
			local.Set(0, tc.local)
			MergeSigns(agg, local, tc.a, 1, r)
			if agg.Get(0) {
				ones++
			}
		}
		want := float64(tc.k) / float64(tc.a+1)
		if tc.local {
			want = float64(tc.k+1) / float64(tc.a+1)
		}
		got := float64(ones) / trials
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("a=%d k=%d local=%v: P(1)=%v, want %v", tc.a, tc.k, tc.local, got, want)
		}
	}
}

// TestMergeSignsWeighted checks the generalized rule used by TAR:
// merging aggregates over a and b workers gives P(1) = (k_a+k_b)/(a+b).
func TestMergeSignsWeighted(t *testing.T) {
	r := rng.New(3)
	const trials = 60000
	// a=4 workers with k_a=3 positive; b=2 workers with k_b=0 positive.
	ones := 0
	for i := 0; i < trials; i++ {
		agg := bitvec.New(1)
		agg.Set(0, r.Float64() < 3.0/4.0)
		local := bitvec.New(1)
		local.Set(0, r.Float64() < 0.0)
		MergeSigns(agg, local, 4, 2, r)
		if agg.Get(0) {
			ones++
		}
	}
	got := float64(ones) / trials
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("weighted merge P(1)=%v, want 0.5", got)
	}
}

func TestMergeSignsAgreementDeterministic(t *testing.T) {
	r := rng.New(5)
	agg := bitvec.New(4)
	local := bitvec.New(4)
	// All agree (both all-zero, then both all-one).
	MergeSigns(agg, local, 3, 1, r)
	if agg.OnesCount() != 0 {
		t.Fatal("agreeing zeros changed")
	}
	agg.Not()
	local.Not()
	MergeSigns(agg, local, 3, 1, r)
	if agg.OnesCount() != 4 {
		t.Fatal("agreeing ones changed")
	}
}

func TestMergeSignsValidation(t *testing.T) {
	r := rng.New(7)
	for _, fn := range []func(){
		func() { MergeSigns(bitvec.New(2), bitvec.New(3), 1, 1, r) },
		func() { MergeSigns(bitvec.New(2), bitvec.New(2), 0, 1, r) },
		func() { MergeSigns(bitvec.New(2), bitvec.New(2), 1, -1, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0, Dim: 4, GlobalLR: 0.1},
		{Workers: 2, Dim: 0, GlobalLR: 0.1},
		{Workers: 2, Dim: 4, GlobalLR: 0},
		{Workers: 3, Dim: 4, GlobalLR: 0.1, Torus: topology.NewTorus(2, 2)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Workers: 4, Dim: 8, GlobalLR: 0.1, Torus: topology.NewTorus(2, 2)}); err != nil {
		t.Fatalf("valid torus config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(Config{})
}

func randGrads(r *rng.PCG, n, d int) []tensor.Vec {
	out := make([]tensor.Vec, n)
	for w := range out {
		out[w] = r.NormVec(make(tensor.Vec, d), 0, 1)
	}
	return out
}

func TestSyncOneBitConsensusAndShape(t *testing.T) {
	const n, d = 4, 37
	m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 0.01, Seed: 1})
	c := cluster(n)
	gt := m.Sync(c, randGrads(rng.New(11), n, d))
	if len(gt) != d {
		t.Fatalf("g_t dim %d", len(gt))
	}
	// One-bit round: every element must be ±η_s exactly.
	for i, x := range gt {
		if math.Abs(math.Abs(x)-0.01) > 1e-15 {
			t.Fatalf("g_t[%d] = %v, want ±0.01", i, x)
		}
	}
	if m.Round() != 1 {
		t.Fatal("round not advanced")
	}
}

func TestSyncFullPrecisionAtKBoundary(t *testing.T) {
	const n, d = 3, 12
	m := MustNew(Config{Workers: n, Dim: d, K: 2, GlobalLR: 0.01, Seed: 2})
	r := rng.New(13)

	// Round 0: t=0, mod(0,2)==0 → full precision: g_t = mean(grads).
	grads := randGrads(r, n, d)
	mean := tensor.New(d)
	for _, g := range grads {
		tensor.Add(mean, g)
	}
	tensor.Scale(mean, 1/float64(n))
	if !m.FullPrecisionNext() {
		t.Fatal("round 0 should be full precision")
	}
	gt := m.Sync(cluster(n), grads)
	if tensor.Dist2(gt, mean) > 1e-9 {
		t.Fatalf("full-precision g_t off by %v", tensor.Dist2(gt, mean))
	}
	// Compensation must be reset to zero.
	for w := 0; w < n; w++ {
		if tensor.Norm2(m.Compensation(w)) != 0 {
			t.Fatal("compensation not reset at full-precision round")
		}
	}
	// Round 1: one-bit.
	if m.FullPrecisionNext() {
		t.Fatal("round 1 should be one-bit")
	}
	gt = m.Sync(cluster(n), grads)
	for _, x := range gt {
		if math.Abs(math.Abs(x)-0.01) > 1e-15 {
			t.Fatal("round 1 not one-bit")
		}
	}
	// Round 2: full precision again.
	if !m.FullPrecisionNext() {
		t.Fatal("round 2 should be full precision")
	}
}

func TestSyncKZeroNeverFullPrecision(t *testing.T) {
	m := MustNew(Config{Workers: 2, Dim: 4, K: 0, GlobalLR: 0.5, Seed: 3})
	for i := 0; i < 5; i++ {
		if m.FullPrecisionNext() {
			t.Fatalf("K=0 requested full precision at round %d", i)
		}
		m.Sync(cluster(2), randGrads(rng.New(uint64(i)), 2, 4))
	}
}

// TestCompensationRecursion verifies Algorithm 1 line 10 bit for bit:
// c_{t+1} = (η_l·g + c_t) − g_t for every worker on a one-bit round, zero
// after a full-precision round and always zero under the ablation. Both
// engines run this arithmetic through the same fused passes of RankSync,
// so the equivalence tests cannot vouch for it; the reference here is the
// unfused statement — Clone(grad), Add, Sub — which IEEE addition's
// commutativity makes exact, not approximate. The same loop holds Sync
// to its promise that grads come back untouched.
func TestCompensationRecursion(t *testing.T) {
	const d = 70 // a full word and a partial one
	sameBits := func(a, b tensor.Vec) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, parallel := range []bool{false, true} {
		for _, tor := range []*topology.Torus{nil, topology.NewTorus(2, 2)} {
			for _, ablate := range []bool{false, true} {
				for _, k := range []int{0, 2} {
					n, name := 3, "ring"
					if tor != nil {
						n, name = tor.Size(), "torus"
					}
					t.Run(fmt.Sprintf("par=%v/%s/ablate=%v/K=%d", parallel, name, ablate, k), func(t *testing.T) {
						m := MustNew(Config{
							Workers: n, Dim: d, K: k, GlobalLR: 0.05, Seed: 4, Torus: tor,
							DisableCompensation: ablate, Parallel: parallel,
						})
						defer m.Close()
						r := rng.New(17)
						for round := 0; round < 5; round++ {
							grads := randGrads(r, n, d)
							passed := make([]tensor.Vec, n)
							before := make([]tensor.Vec, n)
							for w := 0; w < n; w++ {
								passed[w] = tensor.Clone(grads[w])
								before[w] = m.Compensation(w)
							}
							full := m.FullPrecisionNext()
							gt := m.Sync(cluster(n), grads)
							for w := 0; w < n; w++ {
								if !sameBits(grads[w], passed[w]) {
									t.Fatalf("round %d worker %d: Sync modified its gradient", round, w)
								}
								want := tensor.New(d)
								if !full && !ablate {
									copy(want, grads[w])
									tensor.Add(want, before[w])
									tensor.Sub(want, gt)
								}
								if !sameBits(want, m.Compensation(w)) {
									t.Fatalf("round %d worker %d compensation recursion violated", round, w)
								}
							}
						}
					})
				}
			}
		}
	}
}

// parentSync is a sequential Marsit.Sync as it stood before a one-bit
// update stayed bits, kept as SyncUpdate's reference: it drives m's own
// state through begin and the ring phases, then every worker writes
// g_t = ±η_s from worker 0's consensus into one shared fresh vector and
// subtracts it from its compensation (the former fused UnpackScaledSub,
// whose halves are UnpackScaled and a subtract). Full-precision rounds
// did not change and run as they are.
func parentSync(m *Marsit, c *netsim.Cluster, grads []tensor.Vec) tensor.Vec {
	if m.FullPrecisionNext() {
		return m.SyncUpdate(c, grads).Vec
	}
	for w, r := range m.ranks {
		r.begin(c, grads[w])
	}
	for i := range m.phases {
		m.phases[i].merge(m.ranks, 0, 1, nil)
		for _, msgs := range m.phases[i].steps {
			c.Exchange(msgs)
		}
	}
	gt := tensor.New(m.cfg.Dim)
	for _, r := range m.ranks {
		m.ranks[0].bits.UnpackScaled(gt, m.cfg.GlobalLR)
		if !m.cfg.DisableCompensation {
			tensor.Sub(r.comp, gt)
		}
		c.AddDecompress(r.rank, m.cfg.Dim)
	}
	c.Barrier()
	return gt
}

// TestSyncUpdateMatchesSync pins SyncUpdate(...).Dense() to parentSync bit
// for bit on both engines, both topologies, with and without compensation
// and with and without full-precision rounds: the update, every worker's
// compensation vector after every round, the wire bytes and the clocks.
// A sequential one-bit round must return bits, not a vector.
func TestSyncUpdateMatchesSync(t *testing.T) {
	const d = 70 // a full word and a partial one
	for _, parallel := range []bool{false, true} {
		for _, tor := range []*topology.Torus{nil, topology.NewTorus(2, 2)} {
			for _, ablate := range []bool{false, true} {
				for _, k := range []int{0, 2} {
					n, name := 3, "ring"
					if tor != nil {
						n, name = tor.Size(), "torus"
					}
					t.Run(fmt.Sprintf("par=%v/%s/ablate=%v/K=%d", parallel, name, ablate, k), func(t *testing.T) {
						cfg := Config{
							Workers: n, Dim: d, K: k, GlobalLR: 0.05, Seed: 4, Torus: tor,
							DisableCompensation: ablate,
						}
						ref := MustNew(cfg)
						cfg.Parallel = parallel
						m := MustNew(cfg)
						defer m.Close()
						cRef, c := cluster(n), cluster(n)
						r := rng.New(17)
						for round := 0; round < 5; round++ {
							grads := randGrads(r, n, d)
							full := m.FullPrecisionNext()
							want := parentSync(ref, cRef, grads)
							u := m.SyncUpdate(c, grads)
							if !parallel && !full && (u.Signs == nil || u.Vec != nil) {
								t.Fatalf("round %d: sequential one-bit update is not bits", round)
							}
							got := u.Dense()
							for i := range want {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Fatalf("round %d: g_t[%d] = %v, parent Sync %v", round, i, got[i], want[i])
								}
							}
							for w := 0; w < n; w++ {
								gotC, wantC := m.Compensation(w), ref.Compensation(w)
								for i := range wantC {
									if math.Float64bits(gotC[i]) != math.Float64bits(wantC[i]) {
										t.Fatalf("round %d worker %d: c[%d] = %v, parent Sync %v", round, w, i, gotC[i], wantC[i])
									}
								}
							}
							if c.Time() != cRef.Time() || c.TotalBytes() != cRef.TotalBytes() {
								t.Fatalf("round %d: clock %v / %d bytes, parent Sync %v / %d",
									round, c.Time(), c.TotalBytes(), cRef.Time(), cRef.TotalBytes())
							}
						}
					})
				}
			}
		}
	}
}

// TestAuxiliarySequenceInvariant is the exact algebraic identity behind
// Theorem 1 (Eqs. 4–5): with x̃_{t+1} = x̃_t − g_t and ỹ_t = x̃_t − c̄_t,
// the auxiliary sequence satisfies ỹ_{t+1} = ỹ_t − mean(η_l·g_t)
// REGARDLESS of whether the round was one-bit or full precision.
func TestAuxiliarySequenceInvariant(t *testing.T) {
	const n, d = 4, 16
	for _, k := range []int{0, 3} {
		m := MustNew(Config{Workers: n, Dim: d, K: k, GlobalLR: 0.02, Seed: 5})
		r := rng.New(19)
		x := r.NormVec(make(tensor.Vec, d), 0, 1) // shared model x̃
		y := tensor.Clone(x)                      // ỹ_0 = x̃_0 − c̄_0, c̄_0 = 0
		for round := 0; round < 7; round++ {
			grads := randGrads(r, n, d)
			meanG := tensor.New(d)
			for _, g := range grads {
				tensor.Add(meanG, g)
			}
			tensor.Scale(meanG, 1/float64(n))

			gt := m.Sync(cluster(n), grads)
			tensor.Sub(x, gt)       // x̃_{t+1}
			tensor.Sub(y, meanG)    // expected ỹ_{t+1}
			yGot := tensor.Clone(x) // x̃_{t+1} − c̄_{t+1}
			tensor.Sub(yGot, m.MeanCompensation())
			if dd := tensor.Dist2(yGot, y); dd > 1e-9 {
				t.Fatalf("K=%d round %d: auxiliary invariant violated by %v", k, round, dd)
			}
		}
	}
}

// TestOneBitUnbiasedSignAverage: the consensus bit for a coordinate
// must be 1 with probability (#non-negative workers)/M.
func TestOneBitUnbiasedSignAverage(t *testing.T) {
	const n, trials = 4, 30000
	// Coordinate layout: worker w has sign + iff w < pos[i] for
	// coordinate i, so expected P(bit=1) = pos[i]/n.
	pos := []int{0, 1, 2, 3, 4}
	d := len(pos)
	counts := make([]int, d)
	for trial := 0; trial < trials; trial++ {
		m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 1, Seed: uint64(trial)})
		grads := make([]tensor.Vec, n)
		for w := 0; w < n; w++ {
			grads[w] = make(tensor.Vec, d)
			for i := range grads[w] {
				if w < pos[i] {
					grads[w][i] = 1
				} else {
					grads[w][i] = -1
				}
			}
		}
		gt := m.Sync(cluster(n), grads)
		for i, x := range gt {
			if x > 0 {
				counts[i]++
			}
		}
	}
	for i, want := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.012 {
			t.Fatalf("coordinate %d: P(+)=%v, want %v", i, got, want)
		}
	}
}

// TestTorusMatchesRingDistribution: TAR one-bit aggregation must have
// the same unbiased sign-average distribution as RAR.
func TestTorusOneBitUnbiased(t *testing.T) {
	tor := topology.NewTorus(2, 2)
	const n, trials = 4, 30000
	d := 3
	// Coordinate i has i+1 positive workers out of 4.
	counts := make([]int, d)
	for trial := 0; trial < trials; trial++ {
		m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 1, Torus: tor, Seed: uint64(trial)})
		grads := make([]tensor.Vec, n)
		for w := 0; w < n; w++ {
			grads[w] = make(tensor.Vec, d)
			for i := range grads[w] {
				if w <= i {
					grads[w][i] = 1
				} else {
					grads[w][i] = -1
				}
			}
		}
		gt := m.Sync(cluster(n), grads)
		for i, x := range gt {
			if x > 0 {
				counts[i]++
			}
		}
	}
	for i := 0; i < d; i++ {
		want := float64(i+1) / 4
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.012 {
			t.Fatalf("torus coordinate %d: P(+)=%v, want %v", i, got, want)
		}
	}
}

// TestOneBitWireCost: a one-bit RAR round must put exactly
// 2(M−1)·⌈seg bytes⌉ per segment on the wire — about 1/32nd of the
// full-precision cost, the paper's headline compression.
func TestOneBitWireCost(t *testing.T) {
	const n, d = 4, 1024
	m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 0.1, Seed: 6})
	c := cluster(n)
	m.Sync(c, randGrads(rng.New(23), n, d))
	oneBit := c.TotalBytes()

	cFull := cluster(n)
	m2 := MustNew(Config{Workers: n, Dim: d, K: 1, GlobalLR: 0.1, Seed: 6})
	m2.Sync(cFull, randGrads(rng.New(23), n, d))
	full := cFull.TotalBytes()

	if oneBit*16 > full {
		t.Fatalf("one-bit %d B not ≪ full-precision %d B", oneBit, full)
	}
	want := int64(2 * (n - 1) * (d / n / 8) * n)
	if oneBit != want {
		t.Fatalf("one-bit bytes = %d, want %d", oneBit, want)
	}
}

// TestCompressionOverheadMinor: Marsit's compression phase must be a
// small fraction of a round (Figure 5's "minor compression overheads").
func TestCompressionOverheadMinor(t *testing.T) {
	const n, d = 8, 1 << 16
	m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 0.1, Seed: 7})
	c := cluster(n)
	m.Sync(c, randGrads(rng.New(29), n, d))
	bd := c.MeanBreakdown()
	if bd.Compress() <= 0 {
		t.Fatal("no compression time charged")
	}
	if bd.Compress() > bd.Total()/2 {
		t.Fatalf("compression %v dominates total %v", bd.Compress(), bd.Total())
	}
}

func TestSingleWorkerSync(t *testing.T) {
	m := MustNew(Config{Workers: 1, Dim: 4, K: 0, GlobalLR: 0.1, Seed: 8})
	gt := m.Sync(cluster(1), []tensor.Vec{{1, -1, 2, -2}})
	for i, x := range gt {
		want := 0.1
		if i%2 == 1 {
			want = -0.1
		}
		if x != want {
			t.Fatalf("singleton g_t[%d] = %v", i, x)
		}
	}
}

func TestSyncValidation(t *testing.T) {
	m := MustNew(Config{Workers: 2, Dim: 4, K: 0, GlobalLR: 0.1, Seed: 9})
	for _, fn := range []func(){
		func() { m.Sync(cluster(3), randGrads(rng.New(1), 2, 4)) },
		func() { m.Sync(cluster(2), randGrads(rng.New(1), 3, 4)) },
		func() { m.Sync(cluster(2), []tensor.Vec{{1}, {1, 2, 3, 4}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSyncDeterministicGivenSeed(t *testing.T) {
	run := func() tensor.Vec {
		m := MustNew(Config{Workers: 3, Dim: 16, K: 0, GlobalLR: 0.1, Seed: 42})
		r := rng.New(31)
		var gt tensor.Vec
		for i := 0; i < 3; i++ {
			gt = m.Sync(cluster(3), randGrads(r, 3, 16))
		}
		return gt
	}
	a, b := run(), run()
	if tensor.Dist2(a, b) != 0 {
		t.Fatal("same seed produced different syncs")
	}
}

// TestMergeSignsQuickProperty: merged ones count lies between the
// component counts when both sides agree in aggregate direction — more
// precisely, every bit of the merge equals one of the two inputs.
func TestMergeSignsSelectionProperty(t *testing.T) {
	r := rng.New(37)
	f := func(seedRaw uint16) bool {
		rr := rng.New(uint64(seedRaw))
		n := 64
		agg := bitvec.New(n)
		local := bitvec.New(n)
		agg.FillBernoulli(rr, 0.5)
		local.FillBernoulli(rr, 0.5)
		before := agg.Clone()
		MergeSigns(agg, local, 3, 2, r)
		for i := 0; i < n; i++ {
			got := agg.Get(i)
			if got != before.Get(i) && got != local.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMarsitSeqSteadyStateAllocs pins the sequential one-bit round to
// under 1.5 × 8·D bytes at M = 4: the g_t it returns (8·D) plus the ring
// schedule's per-hop segment vectors (at most D bits a worker a phase). u
// lives in the workers' compensation vectors and the packed signs in
// vectors they keep, so a D-float temporary per worker — what the unfused
// passes cost, ≈ 5.2 × 8·D — fails the cap many times over. Rounds are
// measured one by one and the worst decides.
func TestMarsitSeqSteadyStateAllocs(t *testing.T) {
	const n, d = 4, 100_000
	m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 0.1, Seed: 1})
	grads := randGrads(rng.New(1), n, d)
	c := cluster(n)
	maxBytes := uint64(1.5 * 8 * d)
	var before, after goruntime.MemStats
	for round := 0; round < 4; round++ {
		goruntime.ReadMemStats(&before)
		m.Sync(c, grads)
		goruntime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("sequential marsit M=%d D=%d round %d: %d allocs, %d bytes (cap %d = 1.5 × 8·D)",
			n, d, round, after.Mallocs-before.Mallocs, bytes, maxBytes)
		if bytes > maxBytes {
			t.Fatalf("sequential one-bit round allocates %d bytes (cap %d = 1.5 × 8·D): more than g_t and the ring's segment vectors",
				bytes, maxBytes)
		}
	}
}

func BenchmarkSyncOneBitRing(b *testing.B) {
	const n, d = 8, 1 << 14
	m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 0.1, Seed: 1})
	grads := randGrads(rng.New(1), n, d)
	c := cluster(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Sync(c, grads)
	}
}

func BenchmarkSyncOneBitTorus(b *testing.B) {
	const d = 1 << 14
	tor := topology.NewTorus(4, 4)
	m := MustNew(Config{Workers: 16, Dim: d, K: 0, GlobalLR: 0.1, Torus: tor, Seed: 1})
	grads := randGrads(rng.New(1), 16, d)
	c := cluster(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Sync(c, grads)
	}
}

// BenchmarkSyncUpdateTrainShape times one sequential one-bit SyncUpdate
// at the train_marsit job's shape — M = 4 on a ring, D = 99 402 (the MLP
// 192→384→64→10), K = 0 — on the lanes GOMAXPROCS allows (-cpu 1,2
// compares one lane with two).
func BenchmarkSyncUpdateTrainShape(b *testing.B) {
	const n, d = 4, 99_402
	m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 0.004, Seed: 1})
	grads := randGrads(rng.New(1), n, d)
	for _, g := range grads {
		tensor.Scale(g, 0.01)
	}
	c := cluster(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SyncUpdate(c, grads)
	}
}

// TestMarsitSeqUpdateAllocs pins a sequential one-bit SyncUpdate to
// allocating no D-sized vector, float or bit: the update stays the
// consensus bits, and the ring phases' segment vectors and messages are
// built once by New. What is left is the simulated network's per-exchange
// bookkeeping, a few hundred bytes that do not grow with D.
func TestMarsitSeqUpdateAllocs(t *testing.T) {
	const n, d, maxBytes = 4, 100_000, 4 << 10
	for _, tor := range []*topology.Torus{nil, topology.NewTorus(2, 2)} {
		m := MustNew(Config{Workers: n, Dim: d, K: 0, GlobalLR: 0.1, Seed: 1, Torus: tor})
		grads := randGrads(rng.New(1), n, d)
		c := cluster(n)
		var before, after goruntime.MemStats
		for round := 0; round < 4; round++ {
			goruntime.ReadMemStats(&before)
			u := m.SyncUpdate(c, grads)
			goruntime.ReadMemStats(&after)
			bytes := after.TotalAlloc - before.TotalAlloc
			t.Logf("sequential marsit M=%d D=%d torus=%v round %d: %d allocs, %d bytes (cap %d)",
				n, d, tor != nil, round, after.Mallocs-before.Mallocs, bytes, maxBytes)
			if u.Signs == nil || u.Vec != nil {
				t.Fatalf("one-bit round returned a dense update")
			}
			if bytes >= maxBytes {
				t.Fatalf("sequential one-bit SyncUpdate allocates %d bytes (cap %d): a D-sized vector is back in the round",
					bytes, maxBytes)
			}
		}
	}
}
