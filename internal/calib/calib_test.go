package calib

import (
	"encoding/json"
	"strings"
	"testing"

	"marsit/internal/netsim"
	"marsit/internal/obs"
)

func entry(rank int, name string, runs int64, wallT int64, virtT float64) obs.CalibEntry {
	return obs.CalibEntry{
		Rank: rank, Collective: name, Runs: runs,
		WallNanos:   [obs.NumCalibPhases]int64{0, wallT / 2, wallT},
		VirtSeconds: [obs.NumCalibPhases]float64{0, virtT / 2, virtT},
	}
}

func TestDiffWindowizes(t *testing.T) {
	before := []obs.CalibEntry{entry(0, "rar", 2, 2_000_000, 4e-4)}
	after := []obs.CalibEntry{
		entry(0, "rar", 5, 5_000_000, 1e-3),
		entry(1, "ssdm", 3, 900_000, 3e-4),
	}
	got := Diff(before, after)
	if len(got) != 2 {
		t.Fatalf("diff entries = %d", len(got))
	}
	if got[0].Runs != 3 || got[0].WallNanos[2] != 3_000_000 {
		t.Fatalf("windowed rar = %+v", got[0])
	}
	if d := got[0].VirtSeconds[2] - 6e-4; d > 1e-15 || d < -1e-15 {
		t.Fatalf("windowed rar virt = %v", got[0].VirtSeconds[2])
	}
	// ssdm had no before entry and passes through whole.
	if got[1].Runs != 3 || got[1].WallNanos[2] != 900_000 {
		t.Fatalf("passthrough ssdm = %+v", got[1])
	}

	// A pair with no new runs is dropped.
	if got := Diff(after, after); len(got) != 0 {
		t.Fatalf("self-diff = %+v", got)
	}
}

func TestSummarizeFoldsRanks(t *testing.T) {
	entries := []obs.CalibEntry{
		entry(0, "rar", 4, 1_000_000, 2e-3),
		entry(1, "rar", 4, 3_000_000, 2e-3),
		entry(0, "ssdm", 2, 500_000, 1e-3),
	}
	out := Summarize(entries)
	if len(out) != 2 {
		t.Fatalf("summaries = %d", len(out))
	}
	rar := out[0]
	if rar.Collective != "rar" || rar.Runs != 4 {
		t.Fatalf("rar = %+v", rar)
	}
	tr := rar.Phases[netsim.PhaseTransmit]
	if tr.Phase != "transmit" {
		t.Fatalf("phase name = %q", tr.Phase)
	}
	if d := tr.MeasuredSeconds - 4e-3; d > 1e-12 || d < -1e-12 {
		t.Fatalf("transmit measured = %v", tr.MeasuredSeconds)
	}
	if d := tr.PredictedSeconds - 4e-3; d > 1e-12 || d < -1e-12 {
		t.Fatalf("transmit predicted = %v", tr.PredictedSeconds)
	}
	if d := tr.Ratio - 1.0; d > 1e-9 || d < -1e-9 {
		t.Fatalf("transmit ratio = %v", tr.Ratio)
	}
	// compute saw no charge on either side: ratio pinned to 0.
	if cp := rar.Phases[netsim.PhaseCompute]; cp.Ratio != 0 {
		t.Fatalf("compute ratio = %v", cp.Ratio)
	}
	if rar.Ratio <= 0 {
		t.Fatalf("total ratio = %v", rar.Ratio)
	}
}

func TestEntryJSONShape(t *testing.T) {
	out := Summarize([]obs.CalibEntry{entry(0, "cascading", 1, 1_000_000, 1e-3)})
	b, err := json.Marshal(out[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"collective":"cascading"`, `"runs":1`, `"phase":"transmit"`,
		`"predicted_seconds"`, `"measured_seconds"`, `"ratio"`,
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("JSON missing %s: %s", want, b)
		}
	}
}

func TestRankTable(t *testing.T) {
	predicted := []netsim.Breakdown{
		{0, 1e-4, 5e-4},
		{0, 1e-4, 6e-4},
	}
	measured := []netsim.Breakdown{
		{0, 2e-4, 1e-3},
		{0, 3e-4, 1.2e-3},
	}
	s := RankTable("per-rank calibration", predicted, measured)
	for _, want := range []string{"rank", "transmit", "compress", "all", "total", "2.00"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rank table missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "compute") {
		t.Fatalf("zero compute phase rendered:\n%s", s)
	}
}
