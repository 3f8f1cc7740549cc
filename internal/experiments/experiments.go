// Package experiments regenerates every table and figure of the
// paper's evaluation, plus the appendix remark and two ablations.
// Each experiment is a function from a Scale (Quick for tests and
// benchmarks, Full for the CLI) to a rendered Output whose tables and
// charts mirror the paper's rows and series.
//
// Absolute numbers differ from the paper — the substrate is a
// simulator, not a 32-node GPU cluster — but each Output documents the
// paper's shape and the measured shape side by side.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"marsit/internal/netsim"
	"marsit/internal/report"
)

// Scale selects the experiment size.
type Scale int

// Quick runs in seconds (tests, benches); Full mirrors the paper's
// proportions and runs in minutes.
const (
	Quick Scale = iota
	Full
)

// Output is one regenerated artifact.
type Output struct {
	// ID is the experiment identifier (e.g. "table1").
	ID string
	// Title is the paper artifact it reproduces.
	Title string
	// Text is the rendered tables/charts.
	Text string
	// Tables are the structured results (for assertions and CSV).
	Tables []*report.Table
	// Notes records the paper-shape vs measured-shape comparison.
	Notes string
}

// Func runs one experiment.
type Func func(Scale) (*Output, error)

// registry maps experiment ids to implementations.
var registry = map[string]Func{}

// scaledCost restores the paper's serialization-dominated network
// regime for the training-based experiments: the reproduction's models
// are ~10³× smaller than the paper's, so per-byte costs are scaled by
// the same ratio while the 50 µs latency stays fixed. See
// netsim.ScaledCostModel.
var scaledCost = netsim.ScaledCostModel(1000)

// ssdmLRDivisor rescales the local step for SSDM runs: its decode is
// ‖g‖₂·sign, a factor ≈√D larger per coordinate than the gradient, so
// a √D-smaller step is the principled choice (Safaryan & Richtárik use
// γ ∝ 1/√D). The paper likewise grid-tunes step sizes per method.
const ssdmLRDivisor = 300

func register(id string, f Func) { registry[id] = f }

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(id string, s Scale) (*Output, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return f(s)
}

// RunAll executes every experiment and returns the outputs in id order.
func RunAll(s Scale) ([]*Output, error) {
	var outs []*Output
	for _, id := range IDs() {
		o, err := Run(id, s)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// render concatenates tables/charts plus notes into Output.Text.
func render(o *Output, parts ...string) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n\n", o.ID, o.Title)
	for _, p := range parts {
		b.WriteString(p)
		b.WriteString("\n")
	}
	if o.Notes != "" {
		fmt.Fprintf(&b, "shape check: %s\n", o.Notes)
	}
	o.Text = b.String()
}
