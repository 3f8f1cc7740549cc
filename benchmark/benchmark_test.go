package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// TestSpecIsBenchmarkJSON pins BENCHMARK.json to the declarations in
// spec.go: regenerate it with `go run ./benchmark -print-spec`.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json differs from `benchmark -print-spec`; regenerate it")
	}
}

// TestDeclaredNames holds the declarations to the contract's limits.
func TestDeclaredNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// nodeBinary builds cmd/marsit-node for the tests that launch fleets.
func nodeBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("launches marsit-node fleets")
	}
	bin := filepath.Join(t.TempDir(), "marsit-node")
	if out, err := exec.Command("go", "build", "-o", bin, "marsit/cmd/marsit-node").CombinedOutput(); err != nil {
		t.Fatalf("building marsit-node: %v\n%s", err, out)
	}
	return bin
}

// emitted runs finalLine and returns the metric names on it.
func emitted(t *testing.T, res *result, defs []metricDef) []string {
	t.Helper()
	line, err := res.finalLine(defs, true)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatal(err)
	}
	if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
		t.Fatalf("result line reports correct=%v attempted=%d failed=%d", parsed.Correct, parsed.Attempted, parsed.Failed)
	}
	names := make([]string, 0, len(parsed.Metrics))
	for n := range parsed.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func declared(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("emitted %d metrics %v, declared %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("emitted %q where %q is declared", got[i], want[i])
		}
	}
}

// TestQuickWorkloads runs every workload at smoke-test shapes and
// checks that it emits exactly the declared end-to-end metrics. (The
// values mean nothing at these shapes: three 4096-element fleet rounds
// take less than the rendezvous they are net of.)
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			nodeBin := ""
			if w.Name == "fleet_tcp" {
				nodeBin = nodeBinary(t)
			}
			res := newResult()
			if err := runWorkload(w.Name, 1, 0.05, nodeBin, true, res); err != nil {
				t.Fatal(err)
			}
			sameNames(t, emitted(t, res, endToEndDefs), declared(endToEndDefs))
		})
	}
}

// TestQuickTraced runs one traced run at smoke-test shapes: profile,
// the whole ladder, the trace file.
func TestQuickTraced(t *testing.T) {
	nodeBin := nodeBinary(t)
	out := t.TempDir()
	res := newResult()
	if err := runTraced("mix_shm", 1, 0.2, nodeBin, out, true, res); err != nil {
		t.Fatal(err)
	}
	sameNames(t, emitted(t, res, perLayerDefs), declared(perLayerDefs))
	data, err := os.ReadFile(filepath.Join(out, "trace-mix_shm.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct{ Parent int }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace holds no spans")
	}
}
