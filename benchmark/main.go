// Command benchmark is the repository's performance benchmark: five
// workloads from a kernel-bound one-bit ring to a multi-process
// marsit-node fleet, five end-to-end metrics measured with telemetry
// off, and — in a separate traced run — a ladder of per-layer metrics
// timed from outside through each module's public functions. See
// README.md in this directory; BENCHMARK.json at the repository root
// declares what a run must print.
//
// One process runs one workload:
//
//	bash benchmark/run.sh --workload ring_marsit --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"flag"
	"fmt"
	"os"
	gort "runtime"
	"runtime/debug"
	"syscall"
	"time"
)

const (
	selfUsage  = syscall.RUSAGE_SELF
	childUsage = syscall.RUSAGE_CHILDREN
)

// hardDeadline ends a run that is stuck (the program has no Recv
// deadline yet, so a wedged collective would otherwise never return):
// under the contract's 180 s with room to print.
const hardDeadline = 170 * time.Second

// machineClass identifies what a record was measured on; records of
// different classes are not comparable.
func machineClass() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s",
		gort.NumCPU(), gort.GOMAXPROCS(0), gort.Version(), commit)
}

func main() {
	var (
		workload  = flag.String("workload", "", "one of: "+workloadNames())
		seed      = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, telemetry off; 1: per-layer metrics and a span trace")
		nodeBin   = flag.String("node-bin", ".bench_build/bin/marsit-node", "cmd/marsit-node binary (run.sh builds it)")
		outDir    = flag.String("out", "benchmark/out", "where a traced run writes its Chrome trace")
		quick     = flag.Bool("quick", false, "smoke-test shapes (D=4096, a few rounds): exercises every path, measures nothing")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
		selfcheck = flag.Bool("selfcheck", false, "run every workload -runs times in each of two sets and hold the end-to-end metrics to their bounds")
		runs      = flag.Int("runs", 1, "selfcheck: runs per workload and set, each with its own seed")
	)
	flag.Parse()

	switch {
	case *printSpec:
		out, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *runs, *nodeBin))
	}

	if parJobFor(*workload, false) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of: %s)\n", *workload, workloadNames())
		os.Exit(2)
	}
	time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v\n", *workload, hardDeadline)
		os.Exit(3)
	})

	fmt.Printf("# benchmark workload=%s seed=%d seconds=%g trace=%d %s\n",
		*workload, *seed, *seconds, *trace, machineClass())
	res := newResult()
	defs := endToEndDefs
	var err error
	if *trace == 0 {
		err = runWorkload(*workload, *seed, *seconds, *nodeBin, *quick, res)
	} else {
		defs = perLayerDefs
		err = runTraced(*workload, *seed, *seconds, *nodeBin, *outDir, *quick, res)
	}
	report(res, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
	}
	line, lineErr := res.finalLine(defs, err == nil)
	if lineErr != nil {
		fatal(lineErr)
	}
	fmt.Println(line)
	if err != nil || res.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}

// runWorkload is the untraced run: telemetry off, end-to-end metrics.
func runWorkload(workload string, seed uint64, seconds float64, nodeBin string, quick bool, res *result) error {
	switch workload {
	case "train_marsit":
		return runTrain(seed, seconds, quick, res)
	case "fleet_tcp":
		return runFleet(nodeBin, seed, seconds, quick, res)
	default:
		return runPar(parJobFor(workload, quick), seed, seconds, res)
	}
}

// runTraced is the traced run: half the window profiles the workload's
// parallel-engine job with telemetry on against the same job with it
// off, then the ladder runs; every call into the program is a span.
func runTraced(workload string, seed uint64, seconds float64, nodeBin, outDir string, quick bool, res *result) error {
	tr := newTracer(workload)
	err := profile(parJobFor(workload, quick), seed, seconds/2, tr, res)
	if err == nil {
		err = runLadder(seed, nodeBin, quick, tr, res)
	}
	path, werr := tr.write(outDir)
	if werr != nil && err == nil {
		err = werr
	}
	fmt.Print(tr.summary())
	fmt.Printf("# trace: %s (%d spans)\n", path, len(tr.spans))
	return err
}

// report prints every measured metric by name with its unit and sample
// count, in declaration order.
func report(res *result, defs []metricDef) {
	fmt.Printf("%-44s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		if s, ok := res.metrics[d.Name]; ok {
			fmt.Printf("%-44s %16.6f %-6s %d\n", d.Name, s.value, d.Unit, s.n)
		}
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("# operations: %d attempted, %d failed\n", res.attempted, res.failed)
}
