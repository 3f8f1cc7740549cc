package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams collided %d/100 times", same)
	}
}

func TestSplitChildrenDistinct(t *testing.T) {
	p := New(9)
	c1 := p.Split(1)
	c2 := p.Split(1) // same label, parent advanced
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sequential Split children with same label coincide")
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(3)
	for i := 0; i < 10000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	p := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += p.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	p := New(5)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 500; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	p := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[p.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliExtremes(t *testing.T) {
	p := New(21)
	for i := 0; i < 100; i++ {
		if p.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !p.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if p.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !p.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	p := New(23)
	for _, prob := range []float64{0.1, 0.25, 0.5, 0.9} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if p.Bernoulli(prob) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-prob) > 0.01 {
			t.Fatalf("Bernoulli(%v) rate %v", prob, got)
		}
	}
}

func TestNormMoments(t *testing.T) {
	p := New(31)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := p.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance %v, want ~1", variance)
	}
}

func TestNormVec(t *testing.T) {
	p := New(33)
	v := p.NormVec(make([]float64, 10000), 3, 2)
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("NormVec mean %v, want ~3", mean)
	}
}

// normVecScalar is the per-element NormVec the pair loop replaced, kept
// as its oracle.
func normVecScalar(p *PCG, dst []float64, mean, stddev float64) []float64 {
	for i := range dst {
		dst[i] = mean + stddev*p.Norm()
	}
	return dst
}

// TestNormVecMatchesNorm pins NormVec to the per-element Norm loop: the
// same bits in dst and the same generator afterwards (state, spare,
// hasSpare), whatever spare is pending on entry and however the calls
// split a stream.
func TestNormVecMatchesNorm(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1001}
	params := [][2]float64{{0, 1}, {3, -2.5}, {-1e-3, 7}}
	for _, prior := range []int{0, 1, 2} {
		for _, mp := range params {
			for _, n := range lengths {
				got, want := NewStream(uint64(n)+11, uint64(prior)), NewStream(uint64(n)+11, uint64(prior))
				for k := 0; k < prior; k++ {
					got.Norm()
					want.Norm()
				}
				// Three calls in a row: n, then n+1 and 2 elements, so
				// every parity of length meets every parity of spare.
				for call, m := range []int{n, n + 1, 2} {
					a := got.NormVec(make([]float64, m), mp[0], mp[1])
					b := normVecScalar(want, make([]float64, m), mp[0], mp[1])
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							t.Fatalf("prior %d, mean/stddev %v, n %d, call %d: element %d = %v, want %v",
								prior, mp, n, call, i, a[i], b[i])
						}
					}
					if got.state != want.state || got.inc != want.inc || got.hasSpare != want.hasSpare ||
						math.Float64bits(got.spare) != math.Float64bits(want.spare) {
						t.Fatalf("prior %d, mean/stddev %v, n %d, call %d: generator %+v, want %+v",
							prior, mp, n, call, *got, *want)
					}
				}
			}
		}
	}
}

// BenchmarkNormVec times the pair loop beside its per-element oracle.
func BenchmarkNormVec(b *testing.B) {
	for _, leg := range []struct {
		name string
		fill func(p *PCG, dst []float64)
	}{
		{"pairs", func(p *PCG, dst []float64) { p.NormVec(dst, 0, 1) }},
		{"scalar", func(p *PCG, dst []float64) { normVecScalar(p, dst, 0, 1) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			p := New(1)
			dst := make([]float64, 1<<16)
			b.SetBytes(int64(8 * len(dst)))
			for i := 0; i < b.N; i++ {
				leg.fill(p, dst)
			}
		})
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(37)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		perm := p.Perm(n)
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	p := New(41)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	p.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset sum: %d != %d", got, sum)
	}
}

func TestBernoulliWordBounds(t *testing.T) {
	p := New(43)
	if w := p.BernoulliWord(0.5, 0); w != 0 {
		t.Fatalf("nbits=0 gave %x", w)
	}
	if w := p.BernoulliWord(0, 64); w != 0 {
		t.Fatalf("prob=0 gave %x", w)
	}
	if w := p.BernoulliWord(1, 10); w != (1<<10)-1 {
		t.Fatalf("prob=1 nbits=10 gave %x", w)
	}
	if w := p.BernoulliWord(1, 64); w != ^uint64(0) {
		t.Fatalf("prob=1 nbits=64 gave %x", w)
	}
	// nbits < 64 must not set high bits.
	for i := 0; i < 100; i++ {
		if w := p.BernoulliWord(0.7, 16); w>>16 != 0 {
			t.Fatalf("high bits set: %x", w)
		}
	}
}

func TestBernoulliWordRate(t *testing.T) {
	p := New(47)
	for _, prob := range []float64{0.25, 0.5, 0.75} {
		ones := 0
		const words = 5000
		for i := 0; i < words; i++ {
			w := p.BernoulliWord(prob, 64)
			for ; w != 0; w &= w - 1 {
				ones++
			}
		}
		got := float64(ones) / (words * 64)
		if math.Abs(got-prob) > 0.01 {
			t.Fatalf("BernoulliWord(%v) bit rate %v", prob, got)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	p := New(1)
	for i := 0; i < b.N; i++ {
		_ = p.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	p := New(1)
	for i := 0; i < b.N; i++ {
		_ = p.Norm()
	}
}

func BenchmarkBernoulliWordHalf(b *testing.B) {
	p := New(1)
	for i := 0; i < b.N; i++ {
		_ = p.BernoulliWord(0.5, 64)
	}
}
