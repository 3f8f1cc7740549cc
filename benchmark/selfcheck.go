package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// Selfcheck is the repeatability evidence: two sets of runs of the same
// code, every workload -runs times per set with a different seed each,
// judged the way the driver judges the benchmark. Within a set, the
// distance between the first and third quartile of a metric's values,
// as a share of their median, must stay inside the metric's bound
// (set-up time excepted) and should stay inside a third of it; between
// the sets, no median may be worse than the first set's by more than
// the bound.

// record is one run's parsed output.
type record struct {
	class   string
	metrics map[string]float64
}

// runChild runs one workload in a process of its own, like the driver
// does, and parses its header and final line.
func runChild(exe, nodeBin, workload string, seed uint64, seconds float64) (record, error) {
	var rec record
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", "0", "-node-bin", nodeBin)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if _, class, ok := strings.Cut(line, " nproc="); ok && strings.HasPrefix(line, "# benchmark ") {
			rec.class = "nproc=" + class
		}
		last = line
	}
	var parsed struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		return rec, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !parsed.Correct || parsed.Failed > 0 {
		return rec, fmt.Errorf("%s seed %d: incorrect run (%d failed operations)", workload, seed, parsed.Failed)
	}
	rec.metrics = map[string]float64{}
	for name, m := range parsed.Metrics {
		rec.metrics[name] = m.Value
	}
	return rec, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func runSelfcheck(seed uint64, seconds float64, runs int, nodeBin string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# selfcheck: 2 sets x %d workloads x %d runs of %gs, %s\n",
		len(workloadDefs), runs, seconds, machineClass())
	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	class := ""
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := range workloadDefs {
			// The second set walks the workloads backwards, so no workload
			// always runs after the same neighbour.
			w := workloadDefs[i].Name
			if set == 1 {
				w = workloadDefs[len(workloadDefs)-1-i].Name
			}
			values[set][w] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				rec, err := runChild(exe, nodeBin, w, seed+uint64(set*runs+r), seconds)
				if err != nil {
					fatal(err)
				}
				if class == "" {
					class = rec.class
				}
				if rec.class != class {
					fatal(fmt.Errorf("records of different machine classes are not comparable: %q vs %q", rec.class, class))
				}
				for name, v := range rec.metrics {
					values[set][w][name] = append(values[set][w][name], v)
				}
				fmt.Printf("# set %d %s run %d done\n", set+1, w, r+1)
			}
		}
	}

	for set := range values {
		for _, w := range workloadDefs {
			for _, d := range endToEndDefs {
				fmt.Printf("# set %d %-13s %-17s %.5g\n", set+1, w.Name, d.Name, values[set][w.Name][d.Name])
			}
		}
	}
	fmt.Printf("%-13s %-17s %3s %12s %12s %12s %8s | %12s %8s | %8s %6s  %s\n",
		"workload", "metric", "set", "q1", "median", "q3", "spread", "median(2)", "spread", "drift", "bound", "verdict")
	failed := false
	for _, w := range workloadDefs {
		for _, d := range endToEndDefs {
			var med, spread [2]float64
			var q1, q3 float64
			for set := range values {
				xs := values[set][w.Name][d.Name]
				med[set] = median(xs)
				if len(xs) >= 2 {
					a, b := quartiles(xs)
					spread[set] = (b - a) / med[set]
					if set == 0 {
						q1, q3 = a, b
					}
				}
			}
			drift := worseBy(d, med[0], med[1])
			verdict := "ok"
			switch {
			case drift > d.Bound:
				verdict, failed = "FAIL: second median worse than the bound", true
			case d.Name != "setup_s" && max(spread[0], spread[1]) > d.Bound:
				verdict, failed = "FAIL: spread wider than the bound", true
			case d.Name != "setup_s" && max(spread[0], spread[1]) > d.Bound/3:
				verdict = "loose: spread over a third of the bound"
			}
			fmt.Printf("%-13s %-17s %3d %12.5f %12.5f %12.5f %7.2f%% | %12.5f %7.2f%% | %+7.2f%% %5.0f%%  %s\n",
				w.Name, d.Name, 1, q1, med[0], q3, 100*spread[0], med[1], 100*spread[1], 100*drift, 100*d.Bound, verdict)
		}
	}
	if failed {
		fmt.Println("# selfcheck: FAILED")
		return 1
	}
	fmt.Println("# selfcheck: every end-to-end metric repeats within its bound")
	return 0
}
