package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The fleet_tcp job: four marsit-node processes on 127.0.0.1.
const (
	fleetK      = 4
	fleetRounds = 20
	// fleetCheckRounds is the length of the -check fleet that precedes
	// timing (and of the ladder's fleets).
	fleetCheckRounds = 8
	// fleetDeadline bounds one fleet: marsit-node has no Recv deadline,
	// so a wedged rank would otherwise hang the run. Far above the few
	// seconds a healthy fleet takes.
	fleetDeadline = 60 * time.Second
)

// fleetRun is what one fleet launch yields.
type fleetRun struct {
	wall     time.Duration
	maxRSSMB float64 // largest child
	simMs    float64 // rank 0's α–β clock, whole run
	wireMB   float64 // summed over ranks, whole run
	verified bool    // every rank reported the -check verdict
}

var summaryLine = regexp.MustCompile(`t=([0-9.eE+-]+)s wire=([0-9]+)B`)

// freePorts finds n free TCP ports on the loopback interface by binding
// port 0 and releasing the listeners.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// launchFleet starts one marsit-node per rank with the given extra
// arguments, waits for all of them and fails if any exits non-zero or
// the deadline passes (the children are then killed).
func launchFleet(nodeBin string, args ...string) (fleetRun, error) {
	var run fleetRun
	addrs, err := freePorts(workers)
	if err != nil {
		return run, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), fleetDeadline)
	defer cancel()
	cmds := make([]*exec.Cmd, workers)
	outs := make([]bytes.Buffer, workers)
	errs := make([]bytes.Buffer, workers)
	t0 := time.Now()
	for r := range cmds {
		full := append([]string{"-rank", strconv.Itoa(r), "-peers", strings.Join(addrs, ","), "-quiet"}, args...)
		cmds[r] = exec.CommandContext(ctx, nodeBin, full...)
		cmds[r].Stdout, cmds[r].Stderr = &outs[r], &errs[r]
		if err := cmds[r].Start(); err != nil {
			cancel()
			for _, c := range cmds[:r] {
				c.Wait() //nolint:errcheck // already failing; reap only
			}
			return run, err
		}
	}
	var failures []error
	for r, c := range cmds {
		if err := c.Wait(); err != nil {
			failures = append(failures, fmt.Errorf("rank %d: %w: %s", r, err, strings.TrimSpace(errs[r].String())))
			cancel() // a dead rank strands the others; do not wait out the deadline
		}
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			run.maxRSSMB = max(run.maxRSSMB, float64(ru.Maxrss)/1024)
		}
	}
	run.wall = time.Since(t0)
	if len(failures) > 0 {
		return run, errors.Join(failures...)
	}
	run.verified = true
	for r := range outs {
		m := summaryLine.FindSubmatch(outs[r].Bytes())
		if m == nil {
			return run, fmt.Errorf("rank %d printed no summary line: %q", r, outs[r].String())
		}
		clock, _ := strconv.ParseFloat(string(m[1]), 64)
		wire, _ := strconv.ParseFloat(string(m[2]), 64)
		if r == 0 {
			run.simMs = clock * 1e3
		}
		run.wireMB += wire / 1e6
		run.verified = run.verified && bytes.Contains(outs[r].Bytes(), []byte("[verified vs sequential engine]"))
	}
	return run, nil
}

func fleetArgs(dim, rounds int, seed uint64, extra ...string) []string {
	return append([]string{
		"-collective", "marsit", "-k", strconv.Itoa(fleetK),
		"-dim", strconv.Itoa(dim), "-rounds", strconv.Itoa(rounds),
		"-seed", strconv.FormatUint(seed, 10),
	}, extra...)
}

// rendezvous times the smallest possible fleet: process start, fabric
// rendezvous, one tiny round, orderly shutdown.
func rendezvous(nodeBin string, seed uint64, reps int, res *result) (float64, error) {
	var walls []float64
	for i := 0; i < reps; i++ {
		res.attempted++
		run, err := launchFleet(nodeBin, fleetArgs(1024, 1, seed)...)
		if err != nil {
			res.failed++
			return 0, fmt.Errorf("rendezvous fleet: %w", err)
		}
		walls = append(walls, run.wall.Seconds())
	}
	return median(walls), nil
}

// checkedFleet runs the -check fleet: rank 0 replays the run on the
// sequential engine and every rank must report the verdict.
func checkedFleet(nodeBin string, dim, rounds int, seed uint64, res *result) (fleetRun, error) {
	res.attempted += rounds
	run, err := launchFleet(nodeBin, fleetArgs(dim, rounds, seed, "-check")...)
	if err == nil && !run.verified {
		err = errors.New("a rank did not report the sequential-engine verdict")
	}
	if err != nil {
		res.failed += rounds
		return run, fmt.Errorf("-check fleet: %w", err)
	}
	return run, nil
}

// runFleet is the untraced fleet_tcp run: one unit is a whole fleet
// launch, reported per round net of the rendezvous cost.
func runFleet(nodeBin string, seed uint64, seconds float64, quick bool, res *result) error {
	if _, err := os.Stat(nodeBin); err != nil {
		return fmt.Errorf("marsit-node binary: %w (run through benchmark/run.sh, which builds it)", err)
	}
	dim, rounds, checkRounds := 1_000_000, fleetRounds, fleetCheckRounds
	if quick {
		dim, rounds, checkRounds = 4096, 3, 2
	}
	if _, err := checkedFleet(nodeBin, dim, checkRounds, seed, res); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	setup, err := rendezvous(nodeBin, seed, 2*setupReps+1, res)
	if err != nil {
		return err
	}
	res.set("setup_s", setup, 2*setupReps+1)

	var rss, wireMB, simMs float64
	launch := func() (time.Duration, error) {
		res.attempted += rounds
		run, err := launchFleet(nodeBin, fleetArgs(dim, rounds, seed)...)
		if err != nil {
			res.failed += rounds
			return 0, err
		}
		rss = max(rss, run.maxRSSMB)
		wireMB, simMs = run.wireMB/float64(rounds), run.simMs/float64(rounds)
		return time.Duration((run.wall.Seconds() - setup) / float64(rounds) * float64(time.Second)), nil
	}
	// Every launch is its own block.
	w := &window{}
	if err := w.fill(seconds, childUsage, rounds, launch); err != nil {
		return err
	}
	w.endToEnd(res)
	res.set("peak_rss_mb", rss, w.units()*workers)
	res.notes = append(res.notes, fmt.Sprintf(
		"derived: wire %.6f MB/round, simulated %.6f ms/round (marsit-node's summary line)", wireMB, simMs))
	return nil
}
