// Command marsit-node runs one rank of a distributed Marsit fabric over
// the TCP transport: every process hosts one rank, the processes
// rendezvous over the -peers address list, and the collectives of the
// concurrent execution engine run across them with the exact α–β
// virtual-time accounting of the simulation.
//
// Usage (a 4-rank one-bit Marsit run on one machine — any mix of
// machines works as long as every rank lists the same peers):
//
//	marsit-node -rank 1 -peers 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703,127.0.0.1:7704 -check &
//	marsit-node -rank 2 -peers ... -check &
//	marsit-node -rank 3 -peers ... -check &
//	marsit-node -rank 0 -peers ... -check
//
// The rank index selects this process's entry in the -peers list. The
// -check flag must be given to every rank or none: with it, rank 0
// gathers every rank's result, wire-byte count, virtual clock and
// per-phase breakdown after the last round, replays the run on the
// sequential engine, exits non-zero unless everything is bit-identical,
// and prints a Figure-5-style per-phase table from the live fabric —
// `make tcp-demo` scripts exactly that.
//
// -collective selects the schedule by collective-registry name; run
// with -list-collectives for the full set with topology, capability and
// wire-model metadata. Torus-capable schedules (tar, marsit, signsum)
// take -torus R,C; Elias-capable ones (signsum, ssdm) take -elias. A
// newly registered collective is runnable here with no changes to this
// binary.
//
// Calibration: -calibrate (implies -check, all ranks must agree) times
// every round in wall-clock next to the α–β virtual accounting; rank 0
// gathers the per-rank wall splits over the check protocol and prints a
// predicted-vs-measured table per phase. Large ratios are expected on a
// single machine and never affect the exit code — only the bit-exact
// check does. -jitter 500us injects seeded random delay before every
// frame this rank sends (-jitter-seed varies the schedule); injection
// moves wall clock only, so -check still holds under any jitter —
// `make calib-demo` scripts a jittered, calibrated fleet.
//
// Telemetry: -trace out.json captures one Chrome trace_event timeline
// per hosted rank (open in chrome://tracing or Perfetto), -metrics-addr
// :9090 serves /metrics (Prometheus text) and /debug/trace live while
// the node runs (-metrics-linger keeps it up afterwards so a scraper or
// curl can catch a short run), and both also print the rank's per-peer
// transport table. -v raises logging to Debug, including the TCP
// fabric's rendezvous/link/teardown events. -validate-trace parses
// trace files written by -trace and exits non-zero on malformed JSON —
// the CI hook for `make trace-demo`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"marsit/internal/collective/registry"
	"marsit/internal/node"
	"marsit/internal/obs"
	"marsit/internal/transport/tcp"
)

func main() {
	var (
		rank      = flag.Int("rank", 0, "this process's rank (index into -peers)")
		peers     = flag.String("peers", "", "comma-separated host:port list, one per rank")
		coll      = flag.String("collective", "marsit", registry.FlagHelp())
		torus     = flag.String("torus", "", "R,C torus layout for torus-capable collectives (default: ring, or a square torus for tar)")
		dim       = flag.Int("dim", 4096, "gradient dimension D")
		rounds    = flag.Int("rounds", 10, "synchronization rounds")
		k         = flag.Int("k", 0, "Marsit full-precision period (0 = never)")
		globalLR  = flag.Float64("global-lr", 0.004, "Marsit global step η_s")
		seed      = flag.Uint64("seed", 1, "shared root seed (must match on every rank)")
		elias     = flag.Bool("elias", false, "Elias-gamma compaction of sign-sum payloads (Elias-capable collectives)")
		powerRank = flag.Int("power-rank", 0, "low-rank approximation rank of the powersgd collective (0 = default rank 2)")
		check     = flag.Bool("check", false, "rank 0 verifies the fabric against the sequential engine and prints the per-phase table")
		calibrate = flag.Bool("calibrate", false, "time every round against the α–β cost model; rank 0 prints the predicted-vs-measured calibration table (implies -check)")
		jitter    = flag.Duration("jitter", 0, "inject uniform random delay in [0,d) before every frame this rank sends (wall clock only; -check still holds)")
		jitterSd  = flag.Uint64("jitter-seed", 1, "seed of this rank's jitter delay streams")
		dieAfter  = flag.Int("die-after", 0, "crash-fault injection: abandon the fabric after N rounds (0 = off)")
		transp    = flag.String("transport", "tcp", "fabric backend: tcp, shm (co-located ranks over mmap'd rings) or hybrid (shm intra-host, tcp inter-host)")
		shmDir    = flag.String("shm-dir", "", "shared-memory rendezvous directory, shared by every co-located rank (shm/hybrid)")
		hostMap   = flag.String("hosts", "", "hybrid: comma-separated host id per rank (e.g. 0,0,1,1); default: derived from -peers host parts")
		timeout   = flag.Duration("timeout", 15*time.Second, "rendezvous timeout")
		quiet     = flag.Bool("quiet", false, "suppress progress logging")
		verbose   = flag.Bool("v", false, "debug-level logging (includes TCP fabric internals)")
		list      = flag.Bool("list-collectives", false, "list the registered collectives and exit")

		tracePath     = flag.String("trace", "", "write a Chrome trace_event JSON timeline of this rank's hops to the given file")
		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/trace on this address (e.g. :9090)")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the run (lets scrapers catch short runs)")
		validateTrace = flag.Bool("validate-trace", false, "parse the trace files given as arguments and exit (CI helper)")
	)
	flag.Parse()

	if *list {
		fmt.Print(registry.FormatList())
		return
	}
	if *validateTrace {
		os.Exit(validateTraceFiles(flag.Args()))
	}

	addrs := strings.Split(*peers, ",")
	if *peers == "" || len(addrs) < 1 {
		fmt.Fprintln(os.Stderr, "marsit-node: -peers is required (comma-separated host:port, one per rank)")
		os.Exit(2)
	}
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	torusRows, torusCols, err := parseTorus(*torus)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marsit-node: %v\n", err)
		os.Exit(2)
	}
	hosts, err := parseHosts(*hostMap)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marsit-node: %v\n", err)
		os.Exit(2)
	}

	cfg := node.Config{
		Rank:           *rank,
		Addrs:          addrs,
		Collective:     *coll,
		TorusRows:      torusRows,
		TorusCols:      torusCols,
		Dim:            *dim,
		Rounds:         *rounds,
		K:              *k,
		GlobalLR:       *globalLR,
		Seed:           *seed,
		UseElias:       *elias,
		PowerRank:      *powerRank,
		Check:          *check,
		Calibrate:      *calibrate,
		Jitter:         *jitter,
		JitterSeed:     *jitterSd,
		DieAfterRounds: *dieAfter,
		Transport:      *transp,
		ShmDir:         *shmDir,
		Hosts:          hosts,
		DialTimeout:    *timeout,
	}
	if !*quiet {
		level := slog.LevelInfo
		if *verbose {
			level = slog.LevelDebug
		}
		logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
		cfg.Logger = logger
		if *verbose {
			tcp.SetLogger(logger)
		}
	}

	// Telemetry: enable the registry before the fabric assembles so the
	// transport constructors attach their counters.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *tracePath != "" || *metricsAddr != "" {
		reg = obs.Enable()
	}
	if *tracePath != "" {
		tracer = obs.NewTracer(len(addrs), 1<<16)
		reg.AttachTracer(tracer)
	}
	var srv *obs.Server
	if *metricsAddr != "" {
		var err error
		if srv, err = obs.Serve(*metricsAddr, reg); err != nil {
			fmt.Fprintf(os.Stderr, "marsit-node: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "marsit-node: metrics at http://%s/metrics\n", srv.Addr())
	}

	s, runErr := node.Run(cfg)

	if tracer != nil {
		if err := writeTrace(*tracePath, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "marsit-node: %v\n", err)
			os.Exit(1)
		}
	}
	if srv != nil && *metricsLinger > 0 {
		fmt.Fprintf(os.Stderr, "marsit-node: metrics lingering %v at http://%s/metrics\n", *metricsLinger, srv.Addr())
		time.Sleep(*metricsLinger)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "marsit-node: rank %d: %v\n", *rank, runErr)
		os.Exit(1)
	}
	status := ""
	if s.Checked {
		status = " [verified vs sequential engine]"
	}
	fmt.Printf("rank %d/%d: %s D=%d rounds=%d t=%.6fs wire=%dB%s\n",
		s.Rank, s.Workers, cfg.Collective, *dim, *rounds, s.Clock, s.Bytes, status)
	if s.PhaseTable != "" {
		fmt.Print(s.PhaseTable)
	}
	if s.CalibTable != "" {
		fmt.Print(s.CalibTable)
	}
	if s.TransportTable != "" {
		fmt.Print(s.TransportTable)
	}
}

// writeTrace dumps the tracer's timelines as Chrome trace_event JSON.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// validateTraceFiles parses each file as a trace_event document and
// reports how many events it holds; any parse failure is fatal.
func validateTraceFiles(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "marsit-node: -validate-trace needs trace files as arguments")
		return 2
	}
	code := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "marsit-node: %v\n", err)
			code = 1
			continue
		}
		var doc struct {
			TraceEvents []struct {
				Ph   string `json:"ph"`
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "marsit-node: %s: malformed trace JSON: %v\n", path, err)
			code = 1
			continue
		}
		slices := 0
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				slices++
			}
		}
		if slices == 0 {
			fmt.Fprintf(os.Stderr, "marsit-node: %s: trace holds no complete events\n", path)
			code = 1
			continue
		}
		fmt.Printf("%s: ok (%d events, %d slices)\n", path, len(doc.TraceEvents), slices)
	}
	return code
}

// parseTorus parses the -torus "R,C" layout ("" means none).
func parseTorus(s string) (rows, cols int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -torus %q (want R,C)", s)
	}
	rows, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad -torus rows %q", parts[0])
	}
	cols, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad -torus cols %q", parts[1])
	}
	if rows < 1 || cols < 1 {
		return 0, 0, fmt.Errorf("bad -torus %q (need positive dims)", s)
	}
	return rows, cols, nil
}

// parseHosts parses the -hosts rank → host id map ("" means derive it
// from the -peers host parts).
func parseHosts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	hosts := make([]int, len(parts))
	for i, p := range parts {
		h, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || h < 0 {
			return nil, fmt.Errorf("bad -hosts entry %q (want a non-negative host id per rank)", p)
		}
		hosts[i] = h
	}
	return hosts, nil
}
