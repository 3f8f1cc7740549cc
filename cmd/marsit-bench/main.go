// Command marsit-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	marsit-bench -exp table1            # one experiment, quick scale
//	marsit-bench -exp fig4a -scale full # paper-proportioned run
//	marsit-bench -exp all               # everything
//	marsit-bench -list                  # enumerate experiment ids
//	marsit-bench -list-collectives      # enumerate the collective registry
//	marsit-bench -exp fig3 -csv out.csv # also dump tables as CSV
//	marsit-bench -exp fig5 -engine par  # concurrent execution engine
//	marsit-bench -exp fig5 -engine par -transport tcp
//	marsit-bench -exp fig5 -cpuprofile cpu.out -memprofile mem.out
//
// -engine selects the execution engine: seq is the single-threaded
// virtual-time loop; par runs one goroutine per simulated worker. Every
// training method runs on the parallel engine — full-precision RAR/TAR
// and PS, the sign-sum transports (signsgd, ef-signsgd, ssdm ± Elias),
// cascading SSDM, and Marsit — with bit-identical results and α–β
// accounting, so figures are unchanged; only wall-clock speed differs.
//
// -transport selects the parallel engine's fabric: loopback exchanges
// messages through in-process channels, tcp through real sockets on the
// loopback interface (the wire backend that cmd/marsit-node stretches
// across machines). Results are bit-identical either way.
//
// -cpuprofile and -memprofile write pprof profiles of the run (see
// docs/performance.md for the profiling recipe). Performance numbers
// come from the repository's benchmark (make benchmark), not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"marsit/internal/collective/registry"
	"marsit/internal/experiments"
	"marsit/internal/train"
)

func main() {
	err := run()
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "marsit-bench: %v\n", err)
	if _, ok := err.(usageErr); ok {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageErr distinguishes flag misuse (exit 2) from run failures
// (exit 1). Both travel back through run() as ordinary errors so the
// deferred profile writers flush before the process exits.
type usageErr string

func (e usageErr) Error() string { return string(e) }

func run() error {
	var (
		exp        = flag.String("exp", "", "experiment id (or 'all')")
		scale      = flag.String("scale", "quick", "quick | full")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		listColl   = flag.Bool("list-collectives", false, "list the registered collectives and exit")
		csvPath    = flag.String("csv", "", "write result tables as CSV to this file")
		engine     = flag.String("engine", "seq", "execution engine: seq (single-threaded virtual time) | par (one goroutine per worker)")
		transport  = flag.String("transport", "loopback", "parallel engine fabric: loopback (in-process channels) | tcp (real sockets) | shm (mmap'd rings) | hybrid (shm intra-host + tcp inter-host)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *listColl {
		fmt.Print(registry.FormatList())
		return nil
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "marsit-bench: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	switch *engine {
	case "seq":
		train.DefaultEngine = train.EngineSeq
	case "par":
		train.DefaultEngine = train.EnginePar
	default:
		return badUsage(fmt.Sprintf("unknown engine %q (want seq or par)", *engine))
	}
	switch *transport {
	case "loopback":
		train.DefaultTransport = train.TransportLoopback
	case "tcp":
		train.DefaultTransport = train.TransportTCP
	case "shm":
		train.DefaultTransport = train.TransportSHM
	case "hybrid":
		train.DefaultTransport = train.TransportHybrid
	default:
		return badUsage(fmt.Sprintf("unknown transport %q (want loopback, tcp, shm or hybrid)", *transport))
	}

	if *exp == "" {
		return badUsage("-exp is required (try -list)")
	}
	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.Quick
	case "full":
		s = experiments.Full
	default:
		return badUsage(fmt.Sprintf("unknown scale %q", *scale))
	}

	var outs []*experiments.Output
	if *exp == "all" {
		var err error
		outs, err = experiments.RunAll(s)
		if err != nil {
			return err
		}
	} else {
		o, err := experiments.Run(*exp, s)
		if err != nil {
			return err
		}
		outs = []*experiments.Output{o}
	}

	var csv strings.Builder
	for _, o := range outs {
		fmt.Print(o.Text)
		fmt.Println()
		for _, tb := range o.Tables {
			csv.WriteString("# " + o.ID + ": " + tb.Title + "\n")
			csv.WriteString(tb.CSV())
		}
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return fmt.Errorf("writing csv: %w", err)
		}
		fmt.Printf("tables written to %s\n", *csvPath)
	}
	return nil
}

// badUsage reports flag misuse; main turns it into exit status 2 after
// the deferred cleanups (profile writers) have run.
func badUsage(msg string) error {
	return usageErr(msg)
}
