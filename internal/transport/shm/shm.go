//go:build unix

// Package shm is a cross-process shared-memory Transport for co-located
// ranks. Each ordered rank pair gets one mmap'd ring file (see ring.go
// for the layout) in a rendezvous directory, so frames move between
// processes with two memcpys and zero syscalls in steady state — the
// path TCP-over-127.0.0.1 cannot take.
//
// Rendezvous is the filesystem: every fabric first creates the ring
// files it writes (outbound pairs, atomically via temp-file + rename),
// then waits for the rings its peers write (inbound pairs), looking on
// transport.Retry's schedule — pauses from 1 ms doubling to 2 ms — until
// Config.DialTimeout. Because creation strictly precedes opening in
// every process, the fleet assembles without a barrier.
//
// Waiting sides on cross-process rings use an adaptive spin →
// runtime.Gosched → sleep backoff, so a hot exchange stays on-CPU while
// an idle or single-core fleet degrades to millisecond naps instead of
// burning the core. Rings whose two endpoints live in the same fabric
// instance additionally get an in-process doorbell channel, so a
// waiting Recv parks in the scheduler and wakes exactly when the
// producer publishes.
//
// Close poisons every ring the fabric touches by flipping the shared
// closed word, so a dead rank's deferred Close unblocks peers with
// ErrClosed instead of leaving them spinning on a silent ring. Frames
// already published stay drainable while the fabric shuts down.
package shm

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"marsit/internal/obs"
	"marsit/internal/transport"
)

// DefaultRingBytes is the per-ring data capacity. The size is a cache
// trade-off, not a correctness knob: a ring cycles through its bytes
// frame after frame, so a ring sized far beyond the frames it carries
// streams every frame through cold cache lines (a 16 MiB default
// measured ~20% slower than TCP loopback on ring all-reduce at M=4,
// D=1e5; 4 MiB beats it). 4 MiB holds a dense full-vector frame up to
// D=5e5 float64s and M=4 segments at D=1e6; a Send whose frame cannot
// fit fails loudly and names Config.RingBytes as the escape hatch.
// Ring files are sparse, so untouched capacity costs address space,
// not memory.
const DefaultRingBytes = 1 << 22

// closeDrainTimeout bounds how long Close waits for in-flight Send/Recv
// calls to notice the poison before it gives up unmapping (the mapping
// then leaks until process exit — safe, never dangling).
const closeDrainTimeout = 2 * time.Second

// Config parameterizes one process's view of an shm fabric.
type Config struct {
	// Dir is the rendezvous directory holding the ring files. Every
	// co-located process must name the same directory; it must be empty
	// of ring files from previous runs.
	Dir string
	// Ranks is the fleet size n (ranks 0..n-1).
	Ranks int
	// LocalRanks are the ranks hosted by this process. Endpoint panics
	// for any other rank, exactly like the TCP fabric.
	LocalRanks []int
	// Group, when non-nil, restricts ring creation to the listed
	// co-located ranks (it must contain every LocalRank). A hybrid
	// fabric sets it to one host's ranks so no ring ever waits for a
	// peer on another machine. Nil means all ranks share the directory.
	Group []int
	// RingBytes is the per-ring data capacity (0 = DefaultRingBytes).
	// A Send whose frame exceeds it fails loudly rather than deadlock.
	RingBytes int
	// DialTimeout bounds the rendezvous wait for peer ring files (0 =
	// transport.DefaultDialTimeout).
	DialTimeout time.Duration
}

// Fabric is a shared-memory transport.Transport over mmap'd SPSC rings.
type Fabric struct {
	n       int
	dir     string
	ownsDir bool
	local   []bool
	group   []bool
	rings   []*ring // [from*n+to]; nil when this process holds no side of the pair
	// bells[from*n+to] is the in-process doorbell of rings whose two
	// endpoints this fabric hosts: Send rings it after publishing, so a
	// waiting Recv parks on a channel instead of polling — on a single
	// core, polling steals the very cycles the producer needs. Nil for
	// cross-process rings, whose producer lives beyond the scheduler's
	// reach; those keep the spin/yield/sleep backoff.
	bells []chan struct{}
	done  chan struct{} // closed by Close, wakes parked doorbell waiters
	eps   []endpoint

	closed   atomic.Bool // Close entered: Sends fail, rings poisoned
	unmapped atomic.Bool // mappings may be gone: no new op touches them
	ops      atomic.Int64
	once     sync.Once
	metrics  *obs.FabricMetrics
}

// ptrAt returns an unsafe pointer into b at an 8-byte-aligned offset;
// the mapping is page-aligned so fixed header offsets stay aligned.
func ptrAt(b []byte, off int) unsafe.Pointer { return unsafe.Pointer(&b[off]) }

// New assembles this process's side of the fabric: create all outbound
// rings, then open all inbound ones.
func New(cfg Config) (*Fabric, error) {
	if cfg.Dir == "" {
		return nil, errors.New("shm: Config.Dir is required")
	}
	n := cfg.Ranks
	if n < 1 {
		return nil, fmt.Errorf("shm: need at least 1 rank, got %d", n)
	}
	if len(cfg.LocalRanks) == 0 {
		return nil, errors.New("shm: no local ranks")
	}
	ringBytes := cfg.RingBytes
	if ringBytes <= 0 {
		ringBytes = DefaultRingBytes
	}
	if ringBytes <= frameHeader {
		return nil, fmt.Errorf("shm: RingBytes %d cannot hold even an empty frame (%d-byte header)", ringBytes, frameHeader)
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = transport.DefaultDialTimeout
	}

	f := &Fabric{
		n:     n,
		dir:   cfg.Dir,
		local: make([]bool, n),
		group: make([]bool, n),
		rings: make([]*ring, n*n),
		bells: make([]chan struct{}, n*n),
		done:  make(chan struct{}),
	}
	for _, r := range cfg.LocalRanks {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("shm: local rank %d out of range [0,%d)", r, n)
		}
		if f.local[r] {
			return nil, fmt.Errorf("shm: local rank %d listed twice", r)
		}
		f.local[r] = true
	}
	if cfg.Group == nil {
		for r := range f.group {
			f.group[r] = true
		}
	} else {
		for _, r := range cfg.Group {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("shm: group rank %d out of range [0,%d)", r, n)
			}
			f.group[r] = true
		}
		for r, l := range f.local {
			if l && !f.group[r] {
				return nil, fmt.Errorf("shm: local rank %d is not in the co-located group", r)
			}
		}
	}

	fail := func(err error) (*Fabric, error) {
		for _, r := range f.rings {
			if r != nil {
				r.unmap(true)
			}
		}
		return nil, err
	}

	// Phase 1: create every ring this process writes. Doing all creates
	// before any open guarantees rendezvous progress fleet-wide.
	for from := 0; from < n; from++ {
		if !f.local[from] {
			continue
		}
		for to := 0; to < n; to++ {
			if to == from || !f.group[to] {
				continue
			}
			r, err := createRing(cfg.Dir, from, to, ringBytes)
			if err != nil {
				return fail(err)
			}
			f.rings[from*n+to] = r
		}
	}
	// Phase 2: open every ring this process reads but did not create.
	deadline := time.Now().Add(timeout)
	for to := 0; to < n; to++ {
		if !f.local[to] {
			continue
		}
		for from := 0; from < n; from++ {
			if from == to || f.local[from] || !f.group[from] {
				continue
			}
			r, err := openRing(cfg.Dir, from, to, deadline)
			if err != nil {
				return fail(err)
			}
			f.rings[from*n+to] = r
		}
	}

	f.eps = make([]endpoint, n)
	for r := 0; r < n; r++ {
		f.eps[r] = endpoint{f: f, rank: r}
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if f.rings[from*n+to] != nil && f.local[from] && f.local[to] {
				f.bells[from*n+to] = make(chan struct{}, 1)
			}
		}
	}
	if reg := obs.Active(); reg != nil {
		f.metrics = reg.NewFabricMetrics("shm", n, f.local)
		f.metrics.SetQueueDepthFunc(f.queueDepths)
	}
	return f, nil
}

// NewLocal builds a fabric hosting all n ranks over a fresh temporary
// rendezvous directory that Close removes — the in-process constructor
// the engine, benchmarks and the equivalence matrix use.
func NewLocal(n int) (*Fabric, error) {
	dir, err := os.MkdirTemp(ramBackedTempDir(), "marsit-shm-")
	if err != nil {
		return nil, fmt.Errorf("shm: rendezvous dir: %w", err)
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	f, err := New(Config{Dir: dir, Ranks: n, LocalRanks: ranks})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.ownsDir = true
	return f, nil
}

// ramBackedTempDir picks where NewLocal's rendezvous dir lives:
// /dev/shm when present (tmpfs — ring pages never reach a disk
// writeback queue; a MAP_SHARED mapping on a disk-backed temp dir
// taxes every ring write with dirty-page accounting), the system
// temp dir otherwise.
func ramBackedTempDir() string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// FabricMetrics returns the fabric's telemetry, nil when telemetry was
// disabled at construction.
func (f *Fabric) FabricMetrics() *obs.FabricMetrics { return f.metrics }

// queueDepths samples every non-empty ring's buffered bytes at scrape
// time. Guarded like Send/Recv so a concurrent Close never unmaps
// under it.
func (f *Fabric) queueDepths() []obs.QueueDepth {
	f.ops.Add(1)
	defer f.ops.Add(-1)
	if f.unmapped.Load() {
		return nil
	}
	var out []obs.QueueDepth
	for from := 0; from < f.n; from++ {
		for to := 0; to < f.n; to++ {
			r := f.rings[from*f.n+to]
			if r == nil {
				continue
			}
			if d := r.buffered(); d > 0 {
				out = append(out, obs.QueueDepth{Label: fmt.Sprintf("ring %d->%d bytes", from, to), Depth: int(d)})
			}
		}
	}
	return out
}

// Size implements transport.Transport.
func (f *Fabric) Size() int { return f.n }

// Endpoint implements transport.Transport; like the TCP fabric it
// panics for a rank this process does not host.
func (f *Fabric) Endpoint(rank int) transport.Endpoint {
	f.check(rank)
	if !f.local[rank] {
		panic(fmt.Sprintf("shm: rank %d is not hosted by this process", rank))
	}
	return &f.eps[rank]
}

// Close poisons every ring (unblocking local and remote peers with
// ErrClosed), waits briefly for in-flight operations to drain, then
// unmaps. Idempotent.
func (f *Fabric) Close() error {
	f.once.Do(func() {
		f.closed.Store(true)
		for _, r := range f.rings {
			if r != nil {
				r.poison()
			}
		}
		close(f.done) // after the poison, so a woken waiter sees it
		f.drain()
		f.unmapped.Store(true)
		safe := f.drain()
		for _, r := range f.rings {
			if r != nil {
				r.unmap(safe)
			}
		}
		if f.ownsDir {
			os.RemoveAll(f.dir)
		}
	})
	return nil
}

// drain waits for in-flight operations to finish, bounded by
// closeDrainTimeout (poisoned waiters wake within a millisecond nap).
func (f *Fabric) drain() bool {
	deadline := time.Now().Add(closeDrainTimeout)
	for f.ops.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

func (f *Fabric) check(rank int) {
	if rank < 0 || rank >= f.n {
		panic(fmt.Sprintf("shm: rank %d out of range [0,%d)", rank, f.n))
	}
}

// waiter is the adaptive backoff for full-ring sends and empty-ring
// receives: a short busy spin (the peer is usually mid-memcpy on
// another core), then scheduler yields (a single-core fleet makes no
// progress without them), then escalating naps up to a millisecond so
// an idle endpoint costs ~nothing. With GOMAXPROCS=1 the spin phase is
// skipped entirely — the peer cannot be running concurrently, so every
// spin iteration only delays the yield that lets it produce.
type waiter struct {
	n     int
	sleep time.Duration
}

const (
	spinIters  = 64
	yieldIters = 4096
	sleepMin   = 20 * time.Microsecond
	sleepMax   = time.Millisecond
)

// uniprocessor is latched at package init: GOMAXPROCS changes after
// fabric traffic has started are not worth a per-wait runtime call.
var uniprocessor = runtime.GOMAXPROCS(0) == 1

func (w *waiter) wait() {
	w.n++
	switch {
	case w.n <= spinIters && !uniprocessor:
		// busy spin
	case w.n <= spinIters+yieldIters:
		runtime.Gosched()
	default:
		if w.sleep == 0 {
			w.sleep = sleepMin
		}
		time.Sleep(w.sleep)
		if w.sleep < sleepMax {
			w.sleep *= 2
		}
	}
}

type endpoint struct {
	f    *Fabric
	rank int
}

// Rank implements transport.Endpoint.
func (e *endpoint) Rank() int { return e.rank }

// Size implements transport.Endpoint.
func (e *endpoint) Size() int { return e.f.n }

// Send implements transport.Endpoint: copy the frame into the (rank,
// to) ring, blocking with backoff while it is full. The payload buffer
// is recycled after the copy, like the TCP writer — shm is a copying
// wire backend, so steady state stays allocation-free.
func (e *endpoint) Send(to int, p transport.Packet) error {
	f := e.f
	f.check(to)
	if uint64(len(p.Data)) > uint64(^uint32(0)) {
		return fmt.Errorf("shm: payload of %d bytes exceeds frame format", len(p.Data))
	}
	if p.Wire < 0 || int64(p.Wire) > int64(^uint32(0)) {
		return fmt.Errorf("shm: wire size %d outside frame range", p.Wire)
	}
	f.ops.Add(1)
	defer f.ops.Add(-1)
	if f.closed.Load() || f.unmapped.Load() {
		return transport.ErrClosed
	}
	r := f.rings[e.rank*f.n+to]
	if r == nil {
		return fmt.Errorf("shm: ranks %d and %d are not co-located (no ring)", e.rank, to)
	}
	need := frameHeader + uint64(len(p.Data))
	if need > r.cap {
		return fmt.Errorf("shm: frame of %d bytes exceeds ring capacity %d (raise Config.RingBytes)", need, r.cap)
	}
	head := atomic.LoadUint64(r.head)
	var w waiter
	for {
		if r.poisoned() {
			// A peer's deferred Close poisoned the ring — its death must
			// fail this side's sends, not let them pile into a dead ring.
			return transport.ErrClosed
		}
		if r.cap-(head-atomic.LoadUint64(r.tail)) >= need {
			break
		}
		w.wait()
	}
	r.writeFrame(p)
	if b := f.bells[e.rank*f.n+to]; b != nil {
		// Ring after the publish: a consumer that checked an empty ring
		// before the head store now finds a token waiting. Cap-1 and
		// non-blocking — a pending token already guarantees a re-check.
		select {
		case b <- struct{}{}:
		default:
		}
	}
	if m := f.metrics; m != nil {
		m.OnSend(e.rank, to, p.Wire, len(p.Data))
	}
	transport.PutBuffer(p.Data)
	return nil
}

// Recv implements transport.Endpoint: consume the next frame from the
// (from, rank) ring, blocking with backoff while it is empty. Frames
// published before a close stay drainable — the ring is re-checked
// once after the poison is observed, so a completed Send is never
// masked by a racing Close.
func (e *endpoint) Recv(from int) (transport.Packet, error) {
	f := e.f
	f.check(from)
	f.ops.Add(1)
	defer f.ops.Add(-1)
	if f.unmapped.Load() {
		return transport.Packet{}, transport.ErrClosed
	}
	r := f.rings[from*f.n+e.rank]
	if r == nil {
		return transport.Packet{}, fmt.Errorf("shm: ranks %d and %d are not co-located (no ring)", from, e.rank)
	}
	bell := f.bells[from*f.n+e.rank]
	var w waiter
	closedSeen := false
	for {
		if atomic.LoadUint64(r.head) != atomic.LoadUint64(r.tail) {
			p := r.readFrame()
			if m := f.metrics; m != nil {
				m.OnRecv(from, e.rank, p.Wire, len(p.Data))
			}
			return p, nil
		}
		if closedSeen {
			return transport.Packet{}, transport.ErrClosed
		}
		if f.closed.Load() || r.poisoned() {
			// One more pass over the ring before reporting the close, so
			// data published concurrently with the poison is delivered.
			closedSeen = true
			continue
		}
		if bell != nil {
			// In-process producer: park until it rings (or the fabric
			// closes) instead of burning the core it needs.
			select {
			case <-bell:
			case <-f.done:
			}
			continue
		}
		w.wait()
	}
}
