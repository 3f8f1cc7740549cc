package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the measurement half of the cost-model calibration
// harness: a CalibRecorder accumulates, per rank and per collective,
// the predicted virtual seconds of each cost-model phase next to the
// measured wall-clock nanoseconds of the same run, plus per-phase
// wall-time histograms. The runtime engine feeds it (RunRank wraps
// every collective round; the hop, frame and barrier spans feed the
// transmit split); internal/calib turns snapshots into tables and JSON
// blocks.
//
// Like the Tracer, the recorder is attached to a Registry and resolved
// once per collective via ActiveCalib — with none attached every hook
// is a nil check, so calibration is zero-overhead when disabled.

// NumCalibPhases is the per-phase width of calibration records. The
// indices mirror netsim's phases: compute, compress, transmit.
const NumCalibPhases = 3

// CalibPhaseNames names the calibration phases by index.
var CalibPhaseNames = [NumCalibPhases]string{"compute", "compress", "transmit"}

// calibHistBounds are the per-phase wall-time histogram bucket bounds in
// microseconds: a 1-2-5 ladder from 10 µs to 1 s.
var calibHistBounds = []int64{
	10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
	100_000, 200_000, 500_000, 1_000_000,
}

// CalibEntry is one (rank, collective) accumulation: completed runs,
// measured wall nanoseconds per phase, and predicted virtual seconds
// per phase. Snapshot returns these; subtracting two snapshots
// windowizes them (internal/calib.Diff).
type CalibEntry struct {
	Rank        int
	Collective  string
	Runs        int64
	WallNanos   [NumCalibPhases]int64
	VirtSeconds [NumCalibPhases]float64
}

// calibCell accumulates one (rank, collective) pair under the rank's
// lock.
type calibCell struct {
	runs int64
	wall [NumCalibPhases]int64
	virt [NumCalibPhases]float64
	hist [NumCalibPhases]*Histogram
}

// calibRank is one rank's recorder shard. Label and cell writes come
// from the rank's own goroutine; the mutex serializes them against
// snapshot readers (the /metrics scrape, the reporter).
type calibRank struct {
	mu    sync.Mutex
	label string
	cells map[string]*calibCell
	order []string
}

// CalibRecorder accumulates predicted-vs-measured phase timings per
// rank and per collective. All methods are safe for concurrent use;
// the per-rank write paths (SetLabel, ObserveRun, AddCommWall) must be
// called from the rank's own goroutine with its own rank index, which
// the runtime engine guarantees.
type CalibRecorder struct {
	ranks []calibRank
	// comm is per-rank scratch: communication wall nanoseconds
	// accumulated by hop, frame and barrier spans since the last
	// TakeComm. RunRank drains it to split a round's wall time into
	// transmit vs. local work.
	comm []atomic.Int64
}

// NewCalibRecorder builds a recorder for n ranks.
func NewCalibRecorder(n int) *CalibRecorder {
	if n < 1 {
		panic("obs: calib recorder needs n >= 1")
	}
	cr := &CalibRecorder{ranks: make([]calibRank, n), comm: make([]atomic.Int64, n)}
	for i := range cr.ranks {
		cr.ranks[i].cells = map[string]*calibCell{}
	}
	return cr
}

// Ranks returns the number of rank shards.
func (cr *CalibRecorder) Ranks() int { return len(cr.ranks) }

// SetLabel sets the collective name rank's subsequent observations are
// accumulated under.
func (cr *CalibRecorder) SetLabel(rank int, collective string) {
	if rank < 0 || rank >= len(cr.ranks) {
		return
	}
	r := &cr.ranks[rank]
	r.mu.Lock()
	r.label = collective
	r.mu.Unlock()
}

// AddCommWall adds nanos of measured communication wall time to rank's
// scratch accumulator (hop, send, recv and barrier spans).
func (cr *CalibRecorder) AddCommWall(rank int, nanos int64) {
	if rank < 0 || rank >= len(cr.ranks) || nanos <= 0 {
		return
	}
	cr.comm[rank].Add(nanos)
}

// TakeComm drains and returns rank's communication scratch.
func (cr *CalibRecorder) TakeComm(rank int) int64 {
	if rank < 0 || rank >= len(cr.ranks) {
		return 0
	}
	return cr.comm[rank].Swap(0)
}

// ObserveRun records one completed collective run on rank: wall is the
// measured wall nanoseconds per phase, virt the predicted virtual
// seconds the cost model charged over the same run.
func (cr *CalibRecorder) ObserveRun(rank int, wall [NumCalibPhases]int64, virt [NumCalibPhases]float64) {
	if rank < 0 || rank >= len(cr.ranks) {
		return
	}
	r := &cr.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	cell, ok := r.cells[r.label]
	if !ok {
		cell = &calibCell{}
		for i := range cell.hist {
			cell.hist[i] = NewHistogram(calibHistBounds...)
		}
		r.cells[r.label] = cell
		r.order = append(r.order, r.label)
	}
	cell.runs++
	for i := 0; i < NumCalibPhases; i++ {
		cell.wall[i] += wall[i]
		cell.virt[i] += virt[i]
		cell.hist[i].Observe(wall[i] / int64(time.Microsecond))
	}
}

// Snapshot returns every (rank, collective) accumulation, ranks in
// order and collectives in first-observation order per rank.
func (cr *CalibRecorder) Snapshot() []CalibEntry {
	var out []CalibEntry
	for rank := range cr.ranks {
		r := &cr.ranks[rank]
		r.mu.Lock()
		for _, name := range r.order {
			cell := r.cells[name]
			out = append(out, CalibEntry{
				Rank:        rank,
				Collective:  name,
				Runs:        cell.runs,
				WallNanos:   cell.wall,
				VirtSeconds: cell.virt,
			})
		}
		r.mu.Unlock()
	}
	return out
}

// RankWall sums rank's measured wall time over every collective,
// returned as seconds per phase — the node's per-rank gather quantity.
func (cr *CalibRecorder) RankWall(rank int) [NumCalibPhases]float64 {
	var out [NumCalibPhases]float64
	if rank < 0 || rank >= len(cr.ranks) {
		return out
	}
	r := &cr.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cell := range r.cells {
		for i := 0; i < NumCalibPhases; i++ {
			out[i] += float64(cell.wall[i]) / float64(time.Second)
		}
	}
	return out
}

// writePrometheus renders the calibration series: cumulative measured
// wall seconds, predicted virtual seconds and run counts per
// (rank, collective, phase), plus the per-phase wall-time histograms.
func (cr *CalibRecorder) writePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP marsit_calib_runs_total Collective runs observed by the calibration recorder.\n")
	fmt.Fprintf(w, "# TYPE marsit_calib_runs_total counter\n")
	snap := cr.Snapshot()
	for _, e := range snap {
		fmt.Fprintf(w, "marsit_calib_runs_total{rank=%q,collective=%q} %d\n",
			fmt.Sprint(e.Rank), e.Collective, e.Runs)
	}
	fmt.Fprintf(w, "# HELP marsit_calib_wall_seconds_total Measured wall-clock seconds per cost-model phase.\n")
	fmt.Fprintf(w, "# TYPE marsit_calib_wall_seconds_total counter\n")
	for _, e := range snap {
		for ph, name := range CalibPhaseNames {
			fmt.Fprintf(w, "marsit_calib_wall_seconds_total{rank=%q,collective=%q,phase=%q} %.9f\n",
				fmt.Sprint(e.Rank), e.Collective, name, float64(e.WallNanos[ph])/float64(time.Second))
		}
	}
	fmt.Fprintf(w, "# HELP marsit_calib_virtual_seconds_total Predicted virtual seconds per cost-model phase.\n")
	fmt.Fprintf(w, "# TYPE marsit_calib_virtual_seconds_total counter\n")
	for _, e := range snap {
		for ph, name := range CalibPhaseNames {
			fmt.Fprintf(w, "marsit_calib_virtual_seconds_total{rank=%q,collective=%q,phase=%q} %.9f\n",
				fmt.Sprint(e.Rank), e.Collective, name, e.VirtSeconds[ph])
		}
	}
	fmt.Fprintf(w, "# HELP marsit_calib_phase_wall_micros Per-run measured wall microseconds per phase.\n")
	fmt.Fprintf(w, "# TYPE marsit_calib_phase_wall_micros histogram\n")
	for rank := range cr.ranks {
		r := &cr.ranks[rank]
		r.mu.Lock()
		order := append([]string(nil), r.order...)
		cells := make([]*calibCell, len(order))
		for i, name := range order {
			cells[i] = r.cells[name]
		}
		r.mu.Unlock()
		for i, name := range order {
			for ph, phase := range CalibPhaseNames {
				h := cells[i].hist[ph]
				labels := fmt.Sprintf("rank=%q,collective=%q,phase=%q", fmt.Sprint(rank), name, phase)
				var cum int64
				for bi, bound := range h.bounds {
					cum += h.buckets[bi].Load()
					fmt.Fprintf(w, "marsit_calib_phase_wall_micros_bucket{%s,le=%q} %d\n", labels, fmt.Sprint(bound), cum)
				}
				cum += h.buckets[len(h.bounds)].Load()
				fmt.Fprintf(w, "marsit_calib_phase_wall_micros_bucket{%s,le=\"+Inf\"} %d\n", labels, cum)
				fmt.Fprintf(w, "marsit_calib_phase_wall_micros_sum{%s} %d\n", labels, h.Sum())
				fmt.Fprintf(w, "marsit_calib_phase_wall_micros_count{%s} %d\n", labels, h.Count())
			}
		}
	}
}
