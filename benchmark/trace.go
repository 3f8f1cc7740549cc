package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans form a tree (workload → round → public call; ladder
// rows are their own roots) and are kept in memory until the run ends.
type span struct {
	id, parent int // parent -1 for a root
	name       string
	round      int
	start, end time.Duration // since the tracer's epoch
}

// tracer records spans from the benchmark's single calling goroutine.
// A nil *tracer records nothing, which is how untraced runs call the
// same code.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent int, name string, round int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		id: len(t.spans), parent: parent, name: name, round: round,
		start: time.Since(t.epoch), end: -1,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// selfTimes is each span's duration minus what its children cover.
// Children never overlap (one caller), so covering is a plain sum.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start
	}
	for _, s := range t.spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write stores the spans as Chrome trace_event JSON (open in
// chrome://tracing or Perfetto) and returns the path.
func (t *tracer) write(dir string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := t.selfTimes()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue // an operation that failed mid-span
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{
				"id": s.id, "parent": s.parent, "workload": t.workload,
				"round": s.round, "self_us": us(self[i]),
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// summary prints, per span name, the call count and the total and self
// time — the first thing to read in a traced run.
func (t *tracer) summary() string {
	type agg struct {
		name        string
		n           int
		total, self time.Duration
	}
	byName := map[string]*agg{}
	self := t.selfTimes()
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		a := byName[s.name]
		if a == nil {
			a = &agg{name: s.name}
			byName[s.name] = a
		}
		a.n++
		a.total += s.end - s.start
		a.self += self[i]
	}
	rows := make([]*agg, 0, len(byName))
	for _, a := range byName {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	out := fmt.Sprintf("%-40s %8s %12s %12s\n", "span", "calls", "total ms", "self ms")
	for _, a := range rows {
		out += fmt.Sprintf("%-40s %8d %12.3f %12.3f\n", a.name, a.n, ms(a.total), ms(a.self))
	}
	return out
}
