package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// EventKind classifies one traced operation.
type EventKind uint8

// Event kinds emitted by the runtime engine: every frame a rank posts
// shows once, in a hop or a send (a barrier's control frames in its
// barrier event).
const (
	KindHop     EventKind = iota // one ring-hop exchange (send+recv)
	KindSend                     // one posted frame outside a ring hop
	KindRecv                     // one received frame outside a ring hop
	KindBarrier                  // clock barrier
)

func (k EventKind) String() string {
	switch k {
	case KindHop:
		return "hop"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindBarrier:
		return "barrier"
	}
	return "?"
}

// Event is one traced hop, frame or barrier on one rank's timeline.
// Wall-clock fields pair with the virtual α–β clock so predicted versus
// measured skew is directly readable from a trace.
type Event struct {
	Kind       EventKind
	Rank       int
	Hop        int     // hop index within the collective (-1 if n/a)
	Bytes      int     // payload bytes moved
	Wire       int     // cost-model wire bytes charged
	VClock     float64 // rank's virtual clock after the step, or the frame's (seconds)
	Start      time.Time
	Dur        time.Duration
	Collective string // label in force when the event was emitted
	Phase      string
}

// rankRing is one rank's preallocated event buffer. It is single-writer
// (the rank's own goroutine) with drop-on-full semantics: a slot is
// written at most once, then published by the atomic head increment, so
// concurrent readers (the /debug/trace handler) see only complete
// events and never race with a writer recycling a slot.
type rankRing struct {
	events  []Event
	head    atomic.Int64 // number of published events, ≤ len(events)
	dropped atomic.Int64

	collective atomic.Pointer[string]
	phase      atomic.Pointer[string]
}

// Tracer collects per-rank timelines. Emit is allocation-free and
// lock-free; rings never wrap (events past capacity are counted as
// dropped), keeping snapshots race-free under the race detector while a
// run is live.
type Tracer struct {
	rings []rankRing
	epoch time.Time
	// dropCounter, when wired by Registry.AttachTracer, aggregates ring
	// exhaustion across ranks into one registry counter so drops are
	// visible on /metrics without walking the tracer.
	dropCounter atomic.Pointer[Counter]
}

// NewTracer preallocates a tracer for n ranks with the given per-rank
// event capacity.
func NewTracer(n, capacity int) *Tracer {
	t := &Tracer{rings: make([]rankRing, n), epoch: time.Now()}
	for i := range t.rings {
		t.rings[i].events = make([]Event, capacity)
	}
	return t
}

// Ranks returns the number of rank timelines.
func (t *Tracer) Ranks() int { return len(t.rings) }

// SetLabel sets the collective name stamped on rank's subsequent
// events. Must be called from the rank's own goroutine (it is, from
// dispatch.Run and node.runRounds).
func (t *Tracer) SetLabel(rank int, collective string) {
	if rank < 0 || rank >= len(t.rings) {
		return
	}
	t.rings[rank].collective.Store(&collective)
}

// SetPhase sets the phase stamped on rank's subsequent events.
func (t *Tracer) SetPhase(rank int, phase string) {
	if rank < 0 || rank >= len(t.rings) {
		return
	}
	t.rings[rank].phase.Store(&phase)
}

// Emit records e on e.Rank's timeline, stamping the rank's current
// label and phase. Events beyond ring capacity are dropped (and
// counted), never overwritten.
func (t *Tracer) Emit(e Event) {
	if e.Rank < 0 || e.Rank >= len(t.rings) {
		return
	}
	r := &t.rings[e.Rank]
	h := r.head.Load()
	if int(h) >= len(r.events) {
		r.dropped.Add(1)
		if c := t.dropCounter.Load(); c != nil {
			c.Inc()
		}
		return
	}
	if c := r.collective.Load(); c != nil {
		e.Collective = *c
	}
	if p := r.phase.Load(); p != nil {
		e.Phase = *p
	}
	r.events[h] = e
	r.head.Store(h + 1)
}

// Events snapshots rank's published timeline.
func (t *Tracer) Events(rank int) []Event {
	r := &t.rings[rank]
	h := r.head.Load()
	return append([]Event(nil), r.events[:h]...)
}

// Len returns the number of published events on rank's timeline.
func (t *Tracer) Len(rank int) int { return int(t.rings[rank].head.Load()) }

// Dropped returns the number of events lost to ring exhaustion on rank.
func (t *Tracer) Dropped(rank int) int64 { return t.rings[rank].dropped.Load() }

// TotalEvents sums published events across ranks.
func (t *Tracer) TotalEvents() int64 {
	var n int64
	for i := range t.rings {
		n += t.rings[i].head.Load()
	}
	return n
}

func (t *Tracer) writePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP marsit_trace_events_total Trace events captured per rank.\n")
	fmt.Fprintf(w, "# TYPE marsit_trace_events_total counter\n")
	for i := range t.rings {
		fmt.Fprintf(w, "marsit_trace_events_total{rank=%q} %d\n", fmt.Sprint(i), t.rings[i].head.Load())
	}
	fmt.Fprintf(w, "# HELP marsit_trace_events_dropped_total Trace events dropped to ring exhaustion per rank.\n")
	fmt.Fprintf(w, "# TYPE marsit_trace_events_dropped_total counter\n")
	for i := range t.rings {
		fmt.Fprintf(w, "marsit_trace_events_dropped_total{rank=%q} %d\n", fmt.Sprint(i), t.rings[i].dropped.Load())
	}
}

// WriteJSON renders every rank's timeline as a Chrome trace_event JSON
// document (the object form, {"traceEvents": [...]}) loadable in
// chrome://tracing and Perfetto. Each event is a complete ("X") slice:
// pid 1, tid = rank, ts/dur in microseconds relative to the tracer
// epoch; the args carry the simulation-side numbers (virtual clock,
// wire bytes) next to the wall-clock slice so skew is inspectable
// per-hop. Rank timelines get explicit thread_name metadata.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, a ...any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, a...)
		return err
	}
	for rank := range t.rings {
		if err := emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"rank %d"}}`, rank, rank); err != nil {
			return err
		}
	}
	for rank := range t.rings {
		for _, e := range t.Events(rank) {
			ts := float64(e.Start.Sub(t.epoch)) / float64(time.Microsecond)
			dur := float64(e.Dur) / float64(time.Microsecond)
			name := e.Kind.String()
			if e.Phase != "" {
				name = e.Phase + " " + name
			}
			if e.Hop >= 0 {
				name = fmt.Sprintf("%s %d", name, e.Hop)
			}
			if err := emit(`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,`+
				`"args":{"collective":%q,"phase":%q,"hop":%d,"bytes":%d,"wire":%d,"vclock":%.9f}}`,
				name, e.Kind.String(), e.Rank, ts, dur,
				e.Collective, e.Phase, e.Hop, e.Bytes, e.Wire, e.VClock); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
