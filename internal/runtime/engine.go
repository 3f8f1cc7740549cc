// Package runtime is the concurrent execution engine of the Marsit
// reproduction: M persistent worker goroutines, one per rank, each owning
// its shard of every collective and exchanging messages through a
// transport.Transport. It is the parallel counterpart of the lock-step
// loops in internal/collective and internal/core — the D-dimensional math
// genuinely runs on M cores, while the α–β virtual-time accounting of
// internal/netsim is reproduced exactly, so simulated times, wire bytes
// and phase breakdowns match the sequential engine bit for bit.
//
// Two invariants make the equivalence hold:
//
//  1. Data: every ported collective performs, per rank, the same sequence
//     of segment snapshots, additions and sign merges as the sequential
//     schedule, and payloads round-trip through an exact float64/bit
//     encoding. Per-rank RNG streams are goroutine-confined, so merge
//     draws consume each stream in the sequential order.
//  2. Time: each Packet carries the sender's virtual clock; the receiver
//     applies the same cut-through arithmetic as netsim.Cluster.Exchange
//     (arrival = sender clock + α + Bytes·β, floored by the local clock),
//     which is exact because every ported step is one send plus one
//     receive per NIC — no contention cases arise.
//
// The engine accounts onto a *netsim.Cluster: workers touch only their
// own rank's clock, phase and byte entries (disjoint, race-free), and the
// coordinator barriers after every collective.
package runtime

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// Engine runs one goroutine per rank, dispatching collective bodies to
// all of them and joining on completion. Create with New (in-process
// loopback fabric) or NewWithTransport, and Close when done to release
// the worker goroutines.
type Engine struct {
	n             int
	tr            transport.Transport
	ownsTransport bool
	jobs          []chan job
	closed        atomic.Bool
	closeOnce     sync.Once
	failOnce      sync.Once
}

type job struct {
	body func(rank int, ep transport.Endpoint)
	wg   *sync.WaitGroup
	// panics[rank] records a recovered worker panic for the coordinator.
	panics []any
}

// New starts an engine of workers ranks connected by an in-process
// loopback transport.
func New(workers int) *Engine {
	e := NewWithTransport(transport.NewLoopback(workers))
	e.ownsTransport = true
	return e
}

// NewWithOwnedTransport starts an engine over an existing fabric and
// takes ownership of it: Close tears the fabric down too. Used when the
// fabric exists solely to back this engine (e.g. a TCP fabric built for
// the `-transport tcp` configuration).
func NewWithOwnedTransport(tr transport.Transport) *Engine {
	e := NewWithTransport(tr)
	e.ownsTransport = true
	return e
}

// NewWithTransport starts an engine over an existing fabric (one rank per
// transport endpoint). The caller retains ownership of tr: Close does not
// close it. Exception: a panic on a worker goroutine poisons the engine
// and closes tr (owned or not) — the only way to unblock peers mid-
// collective so the join can complete and re-raise the panic.
func NewWithTransport(tr transport.Transport) *Engine {
	n := tr.Size()
	if n < 1 {
		panic("runtime: engine needs >= 1 workers")
	}
	e := &Engine{n: n, tr: tr, jobs: make([]chan job, n)}
	for r := 0; r < n; r++ {
		e.jobs[r] = make(chan job)
		go e.workerLoop(r, e.jobs[r], tr.Endpoint(r))
	}
	return e
}

// Workers returns the number of ranks.
func (e *Engine) Workers() int { return e.n }

// Close stops the worker goroutines and closes the transport if the
// engine owns it. Close is idempotent; the engine is unusable afterwards.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		for _, ch := range e.jobs {
			close(ch)
		}
		if e.ownsTransport {
			e.tr.Close()
		}
	})
	return nil
}

func (e *Engine) workerLoop(rank int, jobs <-chan job, ep transport.Endpoint) {
	for j := range jobs {
		func() {
			defer j.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					j.panics[rank] = r
					// Poison the engine and unblock peers mid-collective
					// so the join cannot hang; their transport errors
					// are recorded too. See NewWithTransport on why the
					// transport is closed even when not owned.
					e.failOnce.Do(func() {
						e.closed.Store(true)
						e.tr.Close()
					})
				}
			}()
			j.body(rank, ep)
		}()
	}
}

// run executes body(rank) on every worker goroutine and waits for all of
// them. A worker panic is re-raised on the caller after the join.
func (e *Engine) run(body func(rank int, ep transport.Endpoint)) {
	if e.closed.Load() {
		panic("runtime: engine used after Close")
	}
	var wg sync.WaitGroup
	wg.Add(e.n)
	j := job{body: body, wg: &wg, panics: make([]any, e.n)}
	for _, ch := range e.jobs {
		ch <- j
	}
	wg.Wait()
	// A root-cause panic closes the transport, so peers blocked in
	// Send/Recv record secondary "transport: closed" panics too; prefer
	// the originating one so the symptom does not mask the cause.
	firstRank := -1
	for rank, p := range j.panics {
		if p == nil {
			continue
		}
		if firstRank < 0 {
			firstRank = rank
		}
		if !strings.Contains(fmt.Sprint(p), transport.ErrClosed.Error()) {
			panic(fmt.Sprintf("runtime: worker %d: %v", rank, p))
		}
	}
	if firstRank >= 0 {
		panic(fmt.Sprintf("runtime: worker %d: %v", firstRank, j.panics[firstRank]))
	}
}

// ParallelFor executes body(rank) on every worker goroutine — shard-local
// work with no communication (gradient packing, scaling, decoding). The
// body must touch only rank-owned state.
func (e *Engine) ParallelFor(body func(rank int)) {
	e.run(func(rank int, _ transport.Endpoint) { body(rank) })
}

// checkShape validates one vector per rank, all of equal dimension, and
// returns the dimension (mirror of the collective-layer check).
func (e *Engine) checkShape(c *netsim.Cluster, vecs []tensor.Vec) int {
	if c.Size() != e.n {
		panic(fmt.Sprintf("runtime: cluster size %d != engine workers %d", c.Size(), e.n))
	}
	if len(vecs) != e.n {
		panic(fmt.Sprintf("runtime: %d vectors for %d workers", len(vecs), e.n))
	}
	d := len(vecs[0])
	for w, v := range vecs {
		if len(v) != d {
			panic(fmt.Sprintf("runtime: worker %d has dim %d, want %d", w, len(v), d))
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// Rank-local accounting and exchange

// rankCtx is a worker's view of one collective: its endpoint, its virtual
// clock, and the cluster it charges. All cluster touches are confined to
// the rank's own entries. post and take are the package's one Send and
// one Recv, begin and end its one in-collective timer (RunRank times
// whole rounds), and every hop, frame and barrier is built from them —
// so a span has one place to be timed and one place to be bounded.
type rankCtx struct {
	c    *netsim.Cluster
	ep   transport.Endpoint
	rank int
	clk  float64
	// tracer, when non-nil, receives one event per hop, frame and
	// barrier pairing the virtual α–β clock with wall-clock timing.
	// Resolved once at context creation so the hot loops pay a nil
	// check, nothing more; events never influence results, bytes or
	// clocks.
	tracer *obs.Tracer
	// rec, when non-nil, is the calibration recorder: the spans end
	// closes accumulate into commNanos and finish flushes the total,
	// giving RunRank the measured communication share of the round's
	// wall time. Same nil-check discipline as the tracer.
	rec       *obs.CalibRecorder
	commNanos int64
	// hops numbers the rank's exchanges within the current collective.
	hops int
}

func newRankCtx(c *netsim.Cluster, ep transport.Endpoint, rank int) *rankCtx {
	return &rankCtx{c: c, ep: ep, rank: rank, clk: c.Clock(rank),
		tracer: obs.ActiveTracer(), rec: obs.ActiveCalib()}
}

// post sends p to rank to; a failed send (a poisoned fabric, a dead
// peer) panics, which the engine's join or a node's round loop reports.
func (r *rankCtx) post(to int, p transport.Packet) {
	if err := r.ep.Send(to, p); err != nil {
		panic(fmt.Sprintf("runtime: rank %d send to %d: %v", r.rank, to, err))
	}
}

// take blocks on the next frame from rank from, panicking like post.
func (r *rankCtx) take(from int) transport.Packet {
	p, err := r.ep.Recv(from)
	if err != nil {
		panic(fmt.Sprintf("runtime: rank %d recv from %d: %v", r.rank, from, err))
	}
	return p
}

// begin opens a communication span: the wall clock when telemetry is on,
// the zero time (and no clock read) when it is off.
func (r *rankCtx) begin() time.Time {
	if r.tracer == nil && r.rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the span begun at t0: it adds the span to the rank's
// communication time and emits e on the rank's timeline. A no-op when
// telemetry is off.
func (r *rankCtx) end(t0 time.Time, e obs.Event) {
	if r.tracer == nil && r.rec == nil {
		return
	}
	span := time.Since(t0)
	r.commNanos += int64(span)
	if r.tracer != nil {
		e.Rank, e.Start, e.Dur = r.rank, t0, span
		r.tracer.Emit(e)
	}
}

// arrival is when frame p lands on a NIC that is free from avail: the
// transfer starts at max(sender clock + α, avail) and takes p.Wire·β —
// netsim.Cluster.Exchange's cut-through receive, with α and β the
// cluster's CostModel Latency and BytePeriod, one pair for every link.
func (r *rankCtx) arrival(p transport.Packet, avail float64) float64 {
	start := p.Clock + r.c.Model.Latency
	if avail > start {
		start = avail
	}
	return start + float64(p.Wire)*r.c.Model.BytePeriod
}

// exchange performs one symmetric ring step — post data to next, block on
// prev — and advances the virtual clock with exactly the arithmetic of
// netsim.Cluster.Exchange for a one-send, one-receive round:
//
//	sendDone  = start + outWire·β
//	recvDone  = arrival(in, start)
//	clock     = max(start, sendDone, recvDone)
//
// The sender's step-start clock rides on the packet. Wire bytes are
// accounted to the sender, as in netsim.
func (r *rankCtx) exchange(next int, data []byte, outWire int, prev int) []byte {
	start, outBytes := r.clk, len(data)
	t0 := r.begin()
	r.post(next, transport.Packet{Data: data, Wire: outWire, Clock: start})
	r.c.AccountBytes(r.rank, outWire)
	p := r.take(prev)
	r.clk = max(start, start+float64(outWire)*r.c.Model.BytePeriod, r.arrival(p, start))
	r.end(t0, obs.Event{Kind: obs.KindHop, Hop: r.hops, Bytes: outBytes, Wire: outWire, VClock: r.clk})
	r.hops++
	return p.Data
}

// push is the send half of a one-way hop — the tree's fan-in and
// fan-out, the hierarchical chain, gossip's double send: it posts data
// to rank to at the rank's clock, then holds the rank's NIC for the
// transfer (the clock advances by wire·β, so a second push starts where
// netsim.Cluster.Exchange serializes it) and charges the wire bytes to
// the sender.
func (r *rankCtx) push(to int, data []byte, wire int) {
	r.send(to, data, wire, r.clk)
	r.clk += float64(wire) * r.c.Model.BytePeriod
	r.c.AccountBytes(r.rank, wire)
}

// pull is the receive half of a one-way hop: it blocks on the next frame
// from rank from, floors the rank's clock to the frame's arrival on a NIC
// free from that clock (successive pulls serialize on it) and returns
// the payload, which the caller consumes and recycles.
func (r *rankCtx) pull(from int) []byte {
	p := r.recv(from)
	r.clk = r.arrival(p, r.clk)
	return p.Data
}

// send posts one raw frame to rank to, stamped with the send-start clock
// at — push's primitive, and the PS hub's, whose replies carry the
// arrival times collective.HubSchedule computes. The caller owns the
// α–β clock arithmetic and the byte charge (a hub reply is charged to
// the worker it goes to).
func (r *rankCtx) send(to int, data []byte, wire int, at float64) {
	t0 := r.begin()
	r.post(to, transport.Packet{Data: data, Wire: wire, Clock: at})
	r.end(t0, obs.Event{Kind: obs.KindSend, Hop: -1, Bytes: len(data), Wire: wire, VClock: at})
}

// recv blocks on one raw frame from rank from — the receive half of
// send. The caller applies the arrival arithmetic (and recycles the
// payload).
func (r *rankCtx) recv(from int) transport.Packet {
	t0 := r.begin()
	p := r.take(from)
	r.end(t0, obs.Event{Kind: obs.KindRecv, Hop: -1, Bytes: len(p.Data), Wire: p.Wire, VClock: p.Clock})
	return p
}

// setPhase stamps the rank's subsequent trace events with the given
// collective phase ("reduce-scatter", "all-gather", ...). A no-op when
// tracing is off.
func (r *rankCtx) setPhase(phase string) {
	if r.tracer != nil {
		r.tracer.SetPhase(r.rank, phase)
	}
}

// addCompress charges compression of elems elements mid-collective: the
// cluster charge records the phase split (and advances the rank's
// cluster clock), while the local clock advances by the same amount so
// subsequent exchanges start exactly where the sequential schedule's
// would. finish then attributes only the remaining advance to
// transmission, reproducing the sequential interleaving of charge and
// Exchange (the cascading schedule compresses between hops).
func (r *rankCtx) addCompress(elems int) {
	r.c.AddCompress(r.rank, elems)
	r.clk += float64(elems) * r.c.Model.CompressPerElem
}

// addDecompress is addCompress for the decompression charge.
func (r *rankCtx) addDecompress(elems int) {
	r.c.AddDecompress(r.rank, elems)
	r.clk += float64(elems) * r.c.Model.DecompressPerElem
}

// finish writes the accumulated transmission time back to the cluster:
// everything beyond the charges already applied is transmit time, exactly
// how the sequential Exchange attributes it. With calibration active it
// also flushes the rank's measured communication wall time to the
// recorder's scratch, where RunRank picks it up.
func (r *rankCtx) finish() {
	r.c.AdvanceTransmit(r.rank, r.clk)
	if r.rec != nil && r.commNanos > 0 {
		r.rec.AddCommWall(r.rank, r.commNanos)
		r.commNanos = 0
	}
}

// ---------------------------------------------------------------------------
// Exact payload codecs

// floatWireBytes is the simulated wire width of one full-precision
// element (float32, matching internal/collective).
const floatWireBytes = 4

// encodeFloats (codec_fast.go / codec_portable.go) serializes v as raw
// little-endian float64 bits — an exact round-trip, so parallel
// arithmetic matches the sequential engine bit for bit. The returned
// slice doubles as the sequential schedule's pre-mutation snapshot. The
// buffer comes from the shared payload pool; ownership passes to the
// transport at Send, and the consuming side recycles it: addFloats
// accumulates a payload into dst (dst[i] += x_i, the reduce-scatter
// combine) without materializing the decoded vector, copyFloats
// overwrites dst (the all-gather combine), and both recycle the dead
// payload into the buffer pool.
//
// A ring pass forwards the frame it received instead of re-encoding
// what it just decoded: addIntoFrame sums the rank's local segment into
// the payload in place (frame_i = local_i + frame_i, the operand order
// of addFloats' dst_i += x_i) and readFloats decodes a payload that is
// sent on afterwards. A forwarded frame is recycled by whoever consumes
// it last — the rank whose hop ends the pass, through addFloats or
// copyFloats — never by the rank that forwards it: Send gave it up.
//
// The round trip is exact for every bit pattern, but one sum is not
// reproducible: when two NaNs of different payloads meet at one index,
// which payload the addition keeps depends on code generation (the race
// detector's build keeps another than the plain one), so results are
// bit-identical across engines everywhere except in NaN payloads.

func checkFloatPayload(n int, data []byte) {
	if len(data) != 8*n {
		panic(fmt.Sprintf("runtime: float payload of %d bytes for %d elements", len(data), n))
	}
}
