package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics (the
// "inclusive" definition; q=0.5 is the usual median).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method) — the definition the driver applies to
// the ten-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is user+system CPU consumed so far by this process
// (RUSAGE_SELF) or by its waited-for children (RUSAGE_CHILDREN).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// block is one stretch of a timed window: the wall time of each unit in
// it, and the wall and CPU the whole stretch took.
type block struct {
	unitMs []float64
	rounds int // rounds the units stand for
	wall   time.Duration
	cpu    time.Duration
}

// window is the timed part of a run, as a sequence of blocks.
type window struct {
	blocks []block
}

func (w *window) units() int {
	n := 0
	for _, b := range w.blocks {
		n += len(b.unitMs)
	}
	return n
}

// runBlock repeats unit for dur (at least once) and returns each call's
// reported duration in ms.
func runBlock(dur time.Duration, unit func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for start := time.Now(); len(out) == 0 || time.Since(start) < dur; {
		d, err := unit()
		if err != nil {
			return out, err
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// add times one block of unit calls (roundsPerUnit rounds each) and
// accounts its wall and CPU; who selects own or children's rusage.
func (w *window) add(dur time.Duration, who, roundsPerUnit int, unit func() (time.Duration, error)) error {
	cpu0, t0 := cpuTime(who), time.Now()
	units, err := runBlock(dur, unit)
	w.blocks = append(w.blocks, block{
		unitMs: units, rounds: len(units) * roundsPerUnit,
		wall: time.Since(t0), cpu: cpuTime(who) - cpu0,
	})
	return err
}

// fill adds one block per unit call until seconds have passed: for
// workloads whose unit (a training repetition, a fleet launch) is long
// enough to be a block of its own.
func (w *window) fill(seconds float64, who, roundsPerUnit int, unit func() (time.Duration, error)) error {
	for t0 := time.Now(); len(w.blocks) == 0 || time.Since(t0).Seconds() < seconds; {
		if err := w.add(0, who, roundsPerUnit, unit); err != nil {
			return err
		}
	}
	return nil
}

// bestQuarter is the mean of the best quarter (at least one) of xs:
// the smallest values, or the largest when higher is better.
func bestQuarter(xs []float64, higher bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higher {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	k := max(1, len(s)/4)
	sum := 0.0
	for _, x := range s[:k] {
		sum += x
	}
	return sum / float64(k)
}

// endToEnd fills the three timing metrics. Each block yields its own
// figure — the median unit, rounds per wall second, CPU per round — and
// the metric is the mean over the best quarter of the blocks.
//
// Why not the median over blocks: this container's cores are shared
// with neighbours nobody can see (no steal time is reported), and a
// pure ALU loop slows down by 20–80 % for seconds at a time. Such a
// burst only ever adds time, so the undisturbed blocks are the fast
// ones; over ten runs their mean repeats two to three times more
// closely than the median does. A stall the program itself causes
// every few rounds (GC, a periodic full-precision round) falls into
// every block and still shows.
func (w *window) endToEnd(res *result) {
	var p50, rate, cpu []float64
	for _, b := range w.blocks {
		p50 = append(p50, median(b.unitMs))
		rate = append(rate, float64(b.rounds)/b.wall.Seconds())
		cpu = append(cpu, ms(b.cpu)/float64(b.rounds))
	}
	n := w.units()
	res.set("round_ms_p50", bestQuarter(p50, false), n)
	res.set("rounds_per_s", bestQuarter(rate, true), n)
	res.set("cpu_ms_per_round", bestQuarter(cpu, false), n)
	res.notes = append(res.notes,
		fmt.Sprintf("per block: round ms %.3f", p50),
		fmt.Sprintf("per block: rounds/s %.3f", rate),
		fmt.Sprintf("per block: cpu ms/round %.3f", cpu))
}
