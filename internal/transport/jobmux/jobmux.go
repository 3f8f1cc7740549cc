// Package jobmux multiplexes many training jobs over one shared
// transport fabric. It is a job-scoped fabric layer: a Mux wraps an
// assembled Transport, stamps Packet.Job on every frame a job sends,
// and routes inbound frames into bounded per-job queues, so each job
// sees an ordinary transport.Transport of its own — FIFO per pair,
// blocking Recv, ErrClosed after Close — while the TCP connections
// underneath stay up across jobs.
//
// # Routing
//
// For every locally hosted rank the Mux runs one pump goroutine per
// peer link. A pump blocks on the inner endpoint's Recv for its link
// and appends each frame to the (job, link) queue named by the frame's
// Job field. Jobs are created implicitly on first sight — a frame can
// arrive before the local Job call — and a closed job's queue entry
// stays behind as a tombstone so late frames are dropped (and their
// buffers recycled) instead of poisoning a live link.
//
// # Backpressure
//
// Each (job, link) queue is bounded (Config.Queue). When a job stops
// draining a link, its pump blocks on the full queue, the inner link
// backs up, and — on TCP — flow control pushes back on the sender's
// writes. Other links keep flowing; on a shared link the stalled job's
// frames stall frames queued behind them (per-link head-of-line), which
// is exactly the contention the bound exists to make visible. Closing a
// job drains it from every link: pumps drop its frames on the floor, so
// a peer blocked in Send unblocks as the link clears.
//
// # Concurrency
//
// Pumps call the inner endpoint's Recv concurrently — one goroutine per
// peer link — and job endpoints call the inner Send concurrently across
// jobs. This leans on the per-link channel structure both backends
// share (and the conformance suite pins): distinct links never share
// mutable state, and per-(job, pair) FIFO survives because the inner
// per-pair FIFO is split by the Job field into independent queues.
//
// Like the frame header that carries it, the Job field is never charged
// to the simulation: each job's virtual clocks, wire bytes and results
// are bit-identical to the same job running alone on a dedicated
// fabric.
package jobmux

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"marsit/internal/obs"
	"marsit/internal/transport"
)

// DefaultQueue is the per-(job, link) receive queue bound in frames.
// Deep enough for a schedule's in-flight frames plus slack; shallow
// enough that a stalled job exerts backpressure within a few frames.
const DefaultQueue = 16

// Config parameterizes a Mux.
type Config struct {
	// Ranks lists the ranks hosted in this process (the ranks whose
	// inner Endpoints the Mux may pump). Nil means all ranks — the
	// in-process shape used by tests; a one-rank process passes its rank.
	Ranks []int
	// Queue bounds each (job, link) receive queue in frames; <= 0 means
	// DefaultQueue.
	Queue int
}

// Mux demultiplexes jobs over one inner fabric. Create with New, obtain
// per-job fabrics with Job, and Close to tear down the inner fabric and
// every job.
type Mux struct {
	inner transport.Transport
	queue int
	ranks []int
	reg   *obs.Registry // captured at New; nil disables per-job counters

	mu     sync.Mutex
	jobs   map[uint32]*JobFabric
	closed bool

	wg sync.WaitGroup
}

// New wraps inner and starts the routing pumps. The caller must not use
// the inner endpoints of the hosted ranks after this point — the Mux
// owns them.
func New(inner transport.Transport, cfg Config) *Mux {
	ranks := cfg.Ranks
	if ranks == nil {
		ranks = make([]int, inner.Size())
		for r := range ranks {
			ranks[r] = r
		}
	}
	q := cfg.Queue
	if q <= 0 {
		q = DefaultQueue
	}
	m := &Mux{
		inner: inner,
		queue: q,
		ranks: append([]int(nil), ranks...),
		reg:   obs.Active(),
		jobs:  make(map[uint32]*JobFabric),
	}
	for _, r := range m.ranks {
		ep := inner.Endpoint(r)
		for from := 0; from < inner.Size(); from++ {
			if from == r {
				continue
			}
			m.wg.Add(1)
			go m.pump(ep, r, from)
		}
	}
	return m
}

// Size returns the number of ranks in the inner fabric.
func (m *Mux) Size() int { return m.inner.Size() }

// FabricMetrics forwards the inner fabric's telemetry (nil when the
// backend has none or telemetry was off at assembly).
func (m *Mux) FabricMetrics() *obs.FabricMetrics {
	if mt, ok := m.inner.(interface{ FabricMetrics() *obs.FabricMetrics }); ok {
		return mt.FabricMetrics()
	}
	return nil
}

// Job returns the fabric scoped to job id, creating it if this is the
// first local sight of the id. The same fabric is returned on every
// call — including after the job was closed, so a canceled job's id
// resolves to its tombstone rather than a fresh fabric (callers must
// not reuse ids). Fails once the Mux is closed.
func (m *Mux) Job(id uint32) (*JobFabric, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, transport.ErrClosed
	}
	return m.jobLocked(id), nil
}

// CloseJob tears down job id's local fabric: its pending Recvs unblock
// with ErrClosed and subsequent inbound frames for it are dropped. The
// inner fabric and every other job keep running. Unknown ids create the
// job closed — a cancel can beat the job's first frame.
func (m *Mux) CloseJob(id uint32) {
	m.mu.Lock()
	j := m.jobLocked(id)
	m.mu.Unlock()
	if j != nil {
		j.Close()
	}
}

// Jobs returns the ids of every job seen locally, sorted.
func (m *Mux) Jobs() []uint32 {
	m.mu.Lock()
	ids := make([]uint32, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	return ids
}

// Close closes the inner fabric and every job, then waits for the pumps
// to drain. Idempotent.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	err := m.inner.Close() // unblocks pump Recvs
	m.closeAllJobs()
	m.wg.Wait()
	return err
}

// jobLocked returns (creating if absent) the fabric for id. Caller
// holds m.mu; a nil return means the Mux is closed.
func (m *Mux) jobLocked(id uint32) *JobFabric {
	if j, ok := m.jobs[id]; ok {
		return j
	}
	if m.closed {
		return nil
	}
	j := &JobFabric{
		m:      m,
		id:     id,
		queues: make(map[int]map[int]chan transport.Packet, len(m.ranks)),
		eps:    make(map[int]*jobEndpoint, len(m.ranks)),
		done:   make(chan struct{}),
	}
	if m.reg != nil {
		label := fmt.Sprint(id)
		j.counters = &jobCounters{
			framesSent: m.reg.Counter("marsit_job_frames_sent_total", "job", label),
			framesRecv: m.reg.Counter("marsit_job_frames_recv_total", "job", label),
			wireSent:   m.reg.Counter("marsit_job_wire_sent_bytes_total", "job", label),
			wireRecv:   m.reg.Counter("marsit_job_wire_recv_bytes_total", "job", label),
			bytesSent:  m.reg.Counter("marsit_job_payload_sent_bytes_total", "job", label),
			bytesRecv:  m.reg.Counter("marsit_job_payload_recv_bytes_total", "job", label),
		}
	}
	for _, r := range m.ranks {
		qs := make(map[int]chan transport.Packet, m.inner.Size()-1)
		for from := 0; from < m.inner.Size(); from++ {
			if from != r {
				qs[from] = make(chan transport.Packet, m.queue)
			}
		}
		j.queues[r] = qs
		j.eps[r] = &jobEndpoint{job: j, rank: r, inner: m.inner.Endpoint(r), queues: qs}
	}
	m.jobs[id] = j
	return j
}

func (m *Mux) closeAllJobs() {
	m.mu.Lock()
	jobs := make([]*JobFabric, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.Close()
	}
}

// pump routes one inner link (from → rank) into per-job queues. It
// exits when the inner fabric closes or is poisoned, taking every job
// down with it — a dead rank still kills the whole fleet, jobs
// included.
func (m *Mux) pump(ep transport.Endpoint, rank, from int) {
	defer m.wg.Done()
	var last *JobFabric // frames arrive in per-job bursts; skip the lock on repeats
	for {
		p, err := ep.Recv(from)
		if err != nil {
			m.closeAllJobs()
			return
		}
		j := last
		if j == nil || j.id != p.Job {
			m.mu.Lock()
			j = m.jobLocked(p.Job)
			m.mu.Unlock()
			last = j
		}
		if j == nil { // Mux closed
			transport.PutBuffer(p.Data)
			continue
		}
		select {
		case j.queues[rank][from] <- p:
			j.stats.framesRecv.Add(1)
			j.stats.wireRecv.Add(int64(p.Wire))
			j.stats.bytesRecv.Add(int64(len(p.Data)))
			if c := j.counters; c != nil {
				c.framesRecv.Inc()
				c.wireRecv.Add(int64(p.Wire))
				c.bytesRecv.Add(int64(len(p.Data)))
			}
		case <-j.done:
			// Tombstone: the job was closed locally; dropping keeps the
			// shared link draining so live jobs behind this frame flow.
			transport.PutBuffer(p.Data)
		}
	}
}

// jobStats aggregates a job's local traffic across its hosted ranks.
type jobStats struct {
	framesSent, wireSent, bytesSent atomic.Int64
	framesRecv, wireRecv, bytesRecv atomic.Int64
}

// jobCounters mirror jobStats onto the obs registry as
// marsit_job_*_total{job="N"} series; nil when telemetry was off at
// Mux creation.
type jobCounters struct {
	framesSent, framesRecv *obs.Counter
	wireSent, wireRecv     *obs.Counter
	bytesSent, bytesRecv   *obs.Counter
}

// JobFabric is one job's view of the shared fabric. It implements
// transport.Transport; Close tears down only this job.
type JobFabric struct {
	m  *Mux
	id uint32

	queues map[int]map[int]chan transport.Packet // [hosted rank][from]
	eps    map[int]*jobEndpoint

	stats    jobStats
	counters *jobCounters

	closeOnce sync.Once
	done      chan struct{}
}

// ID returns the job id this fabric is scoped to.
func (j *JobFabric) ID() uint32 { return j.id }

// Size returns the number of ranks in the shared fabric.
func (j *JobFabric) Size() int { return j.m.inner.Size() }

// Endpoint returns rank's endpoint for this job. Only locally hosted
// ranks have one.
func (j *JobFabric) Endpoint(rank int) transport.Endpoint {
	ep, ok := j.eps[rank]
	if !ok {
		panic(fmt.Sprintf("jobmux: job %d: rank %d is not hosted locally", j.id, rank))
	}
	return ep
}

// FabricMetrics forwards the shared fabric's telemetry so the job view
// satisfies the same metric contract as the backends (per-job counters
// live on the marsit_job_* series instead).
func (j *JobFabric) FabricMetrics() *obs.FabricMetrics { return j.m.FabricMetrics() }

// WireSent returns the cost-model wire bytes this job's hosted ranks
// have posted — the figure behind the per-job bytes/sec gauge.
func (j *JobFabric) WireSent() int64 { return j.stats.wireSent.Load() }

// PayloadSent returns the payload bytes this job's hosted ranks posted.
func (j *JobFabric) PayloadSent() int64 { return j.stats.bytesSent.Load() }

// Close tears down this job's view: pending Recvs unblock with
// ErrClosed, later frames for the job are dropped by the pumps, and the
// shared fabric stays up. Idempotent; never fails.
func (j *JobFabric) Close() error {
	j.closeOnce.Do(func() { close(j.done) })
	return nil
}

// jobEndpoint adapts one hosted rank's inner endpoint to a job scope.
type jobEndpoint struct {
	job    *JobFabric
	rank   int
	inner  transport.Endpoint
	queues map[int]chan transport.Packet // [from]
}

// Rank returns the rank this endpoint belongs to.
func (e *jobEndpoint) Rank() int { return e.rank }

// Size returns the number of ranks in the fabric.
func (e *jobEndpoint) Size() int { return e.job.Size() }

// Send stamps the job id and posts p on the shared fabric. It returns
// ErrClosed once the job (or the fabric) is closed; a Send blocked on a
// full link while the job closes still completes — the frame is dropped
// at the receiving pump, which is what lets the link drain.
func (e *jobEndpoint) Send(to int, p transport.Packet) error {
	select {
	case <-e.job.done:
		return transport.ErrClosed
	default:
	}
	p.Job = e.job.id
	if err := e.inner.Send(to, p); err != nil {
		return err
	}
	e.job.stats.framesSent.Add(1)
	e.job.stats.wireSent.Add(int64(p.Wire))
	e.job.stats.bytesSent.Add(int64(len(p.Data)))
	if c := e.job.counters; c != nil {
		c.framesSent.Inc()
		c.wireSent.Add(int64(p.Wire))
		c.bytesSent.Add(int64(len(p.Data)))
	}
	return nil
}

// Recv blocks until a frame of this job arrives from rank from,
// preferring delivery of an already-queued frame over reporting a
// concurrent close.
func (e *jobEndpoint) Recv(from int) (transport.Packet, error) {
	q, ok := e.queues[from]
	if !ok {
		return transport.Packet{}, fmt.Errorf("jobmux: job %d rank %d: no link from rank %d", e.job.id, e.rank, from)
	}
	select {
	case p := <-q:
		return p, nil
	default:
	}
	select {
	case p := <-q:
		return p, nil
	case <-e.job.done:
		select {
		case p := <-q:
			return p, nil
		default:
		}
		return transport.Packet{}, transport.ErrClosed
	}
}
