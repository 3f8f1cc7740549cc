// Package calib is the reporting half of the cost-model calibration
// harness: it turns the raw per-rank accumulations of an
// obs.CalibRecorder (predicted α–β virtual seconds next to measured
// wall-clock nanoseconds, per collective and per cost-model phase)
// into windowed diffs, per-collective summaries (the benchmark's
// calib.* ladder rows) and the rendered per-rank table of
// marsit-node -calibrate.
//
// The headline quantity is the Ratio: measured wall seconds per
// predicted virtual second, per phase. On a single machine the
// absolute ratios are expected to be far from 1 — M ranks share one
// CPU and the in-process fabrics are orders of magnitude faster than
// the simulated interconnect — but they are stable per phase, which is
// what calibrating the α–β constants against a real deployment needs.
// Calibration error is a measurement, never a failure: nothing in this
// package (or its CLI surfaces) turns a large ratio into a non-zero
// exit.
package calib

import (
	"fmt"

	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/report"
)

// PhaseCalib is one phase's predicted-vs-measured pair.
type PhaseCalib struct {
	// Phase is the cost-model phase name (compute, compress, transmit).
	Phase string `json:"phase"`
	// PredictedSeconds is the α–β virtual time the cost model charged.
	PredictedSeconds float64 `json:"predicted_seconds"`
	// MeasuredSeconds is the wall-clock time observed for the phase.
	MeasuredSeconds float64 `json:"measured_seconds"`
	// Ratio is measured wall seconds per predicted virtual second, 0
	// when the prediction is zero (no charge ⇒ nothing to calibrate).
	Ratio float64 `json:"ratio"`
}

// Entry is one collective's calibration summary: per-phase pairs plus
// run and total columns.
type Entry struct {
	Collective       string       `json:"collective"`
	Runs             int64        `json:"runs"`
	Phases           []PhaseCalib `json:"phases"`
	PredictedSeconds float64      `json:"predicted_seconds"`
	MeasuredSeconds  float64      `json:"measured_seconds"`
	Ratio            float64      `json:"ratio"`
}

// ratio is the guarded division behind every Ratio field.
func ratio(measured, predicted float64) float64 {
	if predicted <= 0 {
		return 0
	}
	return measured / predicted
}

// Diff windowizes recorder snapshots: it returns after − before,
// dropping pairs that saw no new runs. Entries present only in after
// pass through whole. A timed window uses this to exclude warm-up runs
// from the reported calibration.
func Diff(before, after []obs.CalibEntry) []obs.CalibEntry {
	type key struct {
		rank       int
		collective string
	}
	prev := make(map[key]obs.CalibEntry, len(before))
	for _, e := range before {
		prev[key{e.Rank, e.Collective}] = e
	}
	var out []obs.CalibEntry
	for _, e := range after {
		if b, ok := prev[key{e.Rank, e.Collective}]; ok {
			e.Runs -= b.Runs
			for i := 0; i < obs.NumCalibPhases; i++ {
				e.WallNanos[i] -= b.WallNanos[i]
				e.VirtSeconds[i] -= b.VirtSeconds[i]
			}
		}
		if e.Runs > 0 {
			out = append(out, e)
		}
	}
	return out
}

// Summarize folds recorder entries into one Entry per collective,
// summing ranks, in first-appearance order. Runs counts one per
// collective round (the per-rank observations of the same round are
// divided back out by taking the maximum rank count).
func Summarize(entries []obs.CalibEntry) []Entry {
	idx := map[string]int{}
	var out []Entry
	for _, e := range entries {
		i, ok := idx[e.Collective]
		if !ok {
			i = len(out)
			idx[e.Collective] = i
			out = append(out, Entry{
				Collective: e.Collective,
				Phases:     make([]PhaseCalib, obs.NumCalibPhases),
			})
			for ph := range out[i].Phases {
				out[i].Phases[ph].Phase = obs.CalibPhaseNames[ph]
			}
		}
		en := &out[i]
		if e.Runs > en.Runs {
			en.Runs = e.Runs
		}
		for ph := 0; ph < obs.NumCalibPhases; ph++ {
			en.Phases[ph].MeasuredSeconds += float64(e.WallNanos[ph]) / 1e9
			en.Phases[ph].PredictedSeconds += e.VirtSeconds[ph]
		}
	}
	for i := range out {
		en := &out[i]
		for ph := range en.Phases {
			p := &en.Phases[ph]
			p.Ratio = ratio(p.MeasuredSeconds, p.PredictedSeconds)
			en.MeasuredSeconds += p.MeasuredSeconds
			en.PredictedSeconds += p.PredictedSeconds
		}
		en.Ratio = ratio(en.MeasuredSeconds, en.PredictedSeconds)
	}
	return out
}

// RankTable renders a per-rank × per-phase predicted-vs-measured table
// from parallel Breakdown slices (the node's -calibrate gather:
// predicted[w] is rank w's virtual phase split, measured[w] its
// gathered wall split), with a closing totals row.
func RankTable(title string, predicted, measured []netsim.Breakdown) string {
	tb := report.NewTable(title, "rank", "phase",
		"predicted s", "measured s", "wall/virtual")
	var totP, totM float64
	for w := range predicted {
		var m netsim.Breakdown
		if w < len(measured) {
			m = measured[w]
		}
		for ph := 0; ph < obs.NumCalibPhases; ph++ {
			p := predicted[w][ph]
			if p == 0 && m[ph] == 0 {
				continue
			}
			tb.AddRow(fmt.Sprint(w), obs.CalibPhaseNames[ph],
				report.FormatFloat(p), report.FormatFloat(m[ph]),
				report.FormatFloat(ratio(m[ph], p)))
			totP += p
			totM += m[ph]
		}
	}
	tb.AddRow("all", "total", report.FormatFloat(totP),
		report.FormatFloat(totM), report.FormatFloat(ratio(totM, totP)))
	return tb.Render()
}
