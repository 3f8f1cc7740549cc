package collective

import (
	goruntime "runtime"
	"testing"

	"marsit/internal/rng"
)

// TestRingPassAllocs holds a sequential ring round to an allocation
// budget that does not grow with the dimension: a ring pass reads each
// sender's view in place, so the full-precision ring (RingAllReduce) and
// the fixed-width sign-sum ring (SignSumRing without Elias) at M = 4,
// D = 2^16 allocate only their message lists and segment tables — under
// 64 KB a round, where copying every message out allocates megabytes.
func TestRingPassAllocs(t *testing.T) {
	const workers, dim, maxBytes = 4, 1 << 16, 64 << 10
	c := cluster(workers)
	vecs, _ := randomVecs(rng.NewStream(1, 0), workers, dim)
	votes := make([][]int64, workers)
	for w := range votes {
		votes[w] = make([]int64, dim)
	}
	scales := make([]float64, workers)
	for _, tc := range []struct {
		name  string
		round func()
	}{
		{"RingAllReduce", func() { RingAllReduce(c, vecs) }},
		{"SignSumRing", func() {
			for w := range votes {
				for i := range votes[w] {
					votes[w][i] = int64(1 - 2*((w+i)%2))
				}
			}
			SignSumRing(c, votes, scales, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.round()
			var before, after goruntime.MemStats
			for round := 0; round < 3; round++ {
				goruntime.ReadMemStats(&before)
				tc.round()
				goruntime.ReadMemStats(&after)
				bytes := after.TotalAlloc - before.TotalAlloc
				t.Logf("%s M=%d D=%d round %d: %d bytes", tc.name, workers, dim, round, bytes)
				if bytes > maxBytes {
					t.Fatalf("%s allocates %d bytes in a round at M=%d, D=%d (cap %d): a ring pass copies its messages",
						tc.name, bytes, workers, dim, maxBytes)
				}
			}
		})
	}
}
