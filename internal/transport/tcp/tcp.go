// Package tcp implements transport.Transport over real TCP sockets, so
// the collectives of the concurrent execution engine run unchanged across
// processes and machines.
//
// # Topology
//
// A fabric spans n ranks; Config.Addrs[r] is rank r's listen address.
// Every directed (sender, receiver) pair maps onto one full-duplex TCP
// connection per unordered pair {i, j}: the connection carries i→j
// traffic one way and j→i traffic the other. One process may host any
// subset of the ranks (Config.LocalRanks); a fabric hosting a single rank
// is the cmd/marsit-node shape, a fabric hosting all ranks is the
// in-process shape used by tests and the `-transport tcp` engines.
//
// # Rendezvous
//
// All ranks listen; for the pair {i, j} with i < j, rank i dials rank
// j's address (deterministic dial direction, so exactly one connection
// exists per pair and no tie-breaking is needed). Dialers retry until
// DialTimeout, tolerating peers that start late. Each connection opens
// with a hello exchange
//
//	dialer → "MTP" | version byte | uint32 dialer rank | uint32 target rank
//	target → "MTP" | version byte | uint32 target rank | uint32 dialer rank
//
// (all integers little-endian) which pins the pair to the connection and
// rejects protocol or wiring mismatches before any payload flows. The
// version byte negotiates the frame format: both ends must speak
// FrameVersion, and a mismatch fails the rendezvous with a loud "frame
// version" error naming both versions — a mixed-version fleet dies in
// the handshake instead of misparsing the extended header below.
//
// # Frames
//
// After the hello, each direction is a stream of length-prefixed frames
// (format version '2'):
//
//	uint32 payload length | uint32 Wire | float64 Clock (IEEE-754 bits) | uint32 Job | payload
//
// Wire, Clock and Job are the Packet fields of the simulated cost model
// and the job-scoped fabric layer (transport/jobmux); the 20-byte frame
// header itself is never charged to the simulation. A
// dedicated writer goroutine per (local rank, peer) drains a bounded send
// queue onto the socket and a dedicated reader goroutine parses frames
// into a bounded receive queue, so per-pair FIFO follows from TCP's own
// ordering plus single-reader/single-writer queues.
//
// Close tears down every socket; blocked Sends and Recvs return
// transport.ErrClosed, while packets already parsed into a receive queue
// stay drainable, matching the Loopback semantics. An unexpected peer
// failure (connection reset, EOF mid-run) poisons the whole fabric the
// same way, so a collective blocked on a dead peer fails fast instead of
// hanging.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"marsit/internal/obs"
	"marsit/internal/transport"
)

// logger is the package's optional structured logger. The fabric has no
// construction-time configuration hook in CLIs that only pass addresses,
// so verbosity is process-global: marsit-node -v installs a Debug-level
// slog here. Unset (the default) means no logging at all.
var logger atomic.Pointer[slog.Logger]

// SetLogger installs l as the package logger (nil disables logging).
func SetLogger(l *slog.Logger) { logger.Store(l) }

func logDebug(msg string, args ...any) {
	if l := logger.Load(); l != nil {
		l.Debug(msg, args...)
	}
}

// magic opens every hello exchange; the trailing digit versions the
// frame format. Version '2' added the uint32 Job field to the frame
// header (transport/jobmux). Both ends must agree: helloVersionErr
// turns a prefix-matching, version-differing peer into a loud error
// instead of letting the two sides misparse each other's frames.
var magic = [4]byte{'M', 'T', 'P', '2'}

// headerBytes is the fixed frame header size: payload length, wire size,
// clock bits, job ID.
const headerBytes = 4 + 4 + 8 + 4

// DefaultDialTimeout bounds the rendezvous: how long dialers retry and
// listeners wait for the fabric to assemble.
const DefaultDialTimeout = 10 * time.Second

// dialRetryInterval is the pause between dial attempts while a peer's
// listener is not up yet.
const dialRetryInterval = 20 * time.Millisecond

// Config parameterizes a fabric. Addrs is required; the zero value of
// every other field selects a sensible default.
type Config struct {
	// Addrs[r] is rank r's listen address ("host:port"); its length is
	// the fabric size.
	Addrs []string
	// LocalRanks lists the ranks this process hosts. nil hosts all ranks
	// (the in-process configuration).
	LocalRanks []int
	// DialTimeout bounds the rendezvous; 0 selects DefaultDialTimeout.
	DialTimeout time.Duration
}

// Fabric is a TCP-backed transport.Transport. Endpoint is only available
// for the ranks this process hosts.
type Fabric struct {
	n         int
	local     []int
	eps       map[int]*endpoint
	listeners []net.Listener
	conns     []net.Conn
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	writerWG  sync.WaitGroup
	metrics   *obs.FabricMetrics // nil unless telemetry was active at assembly
	// mu orders startConn against Close: a reader of an early-wired pair
	// can poison the fabric while later pairs are still being wired, so
	// conns appends, goroutine Adds and the done check must be atomic
	// with respect to Close's teardown.
	mu sync.Mutex
}

// flushTimeout bounds how long a graceful Close holds the sockets open
// for the writer goroutines to drain their queues. Idle writers exit
// immediately; the timeout only matters when a peer has stopped reading.
const flushTimeout = time.Second

// endpoint is one hosted rank's view of the fabric.
type endpoint struct {
	f     *Fabric
	rank  int
	links map[int]*link // one per peer rank
}

// link is the pair of bounded queues between a hosted rank and one peer,
// bridged to the pair's socket by the reader and writer goroutines.
type link struct {
	sendq chan transport.Packet
	recvq chan transport.Packet
	// eof is closed when the link's reader goroutine — the sole recvq
	// producer — exits; after it, recvq is complete and drainable.
	eof chan struct{}
}

// New assembles a fabric over cfg.Addrs, hosting cfg.LocalRanks: it
// listens, dials every peer pair involving a hosted rank, and returns
// once all connections are up and verified. On error nothing is left
// running.
func New(cfg Config) (*Fabric, error) {
	n := len(cfg.Addrs)
	if n < 1 {
		return nil, errors.New("tcp: need at least one address")
	}
	local := cfg.LocalRanks
	if local == nil {
		local = make([]int, n)
		for r := range local {
			local[r] = r
		}
	}
	if len(local) == 0 {
		return nil, errors.New("tcp: no local ranks")
	}
	isLocal := make(map[int]bool, len(local))
	for _, r := range local {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("tcp: local rank %d out of range [0,%d)", r, n)
		}
		if isLocal[r] {
			return nil, fmt.Errorf("tcp: duplicate local rank %d", r)
		}
		isLocal[r] = true
	}

	listeners := make(map[int]net.Listener, len(local))
	for _, r := range local {
		l, err := net.Listen("tcp", cfg.Addrs[r])
		if err != nil {
			for _, prev := range listeners {
				prev.Close()
			}
			return nil, fmt.Errorf("tcp: rank %d listen %s: %w", r, cfg.Addrs[r], err)
		}
		listeners[r] = l
	}
	return assemble(cfg.Addrs, listeners, local, cfg.DialTimeout)
}

// NewLocal assembles an n-rank fabric entirely inside this process, every
// rank on its own ephemeral 127.0.0.1 port — real sockets, loopback
// interface. It is the `-transport tcp` backend of the engines and the
// conformance/equivalence test harness.
func NewLocal(n int) (*Fabric, error) {
	if n < 1 {
		return nil, errors.New("tcp: need n >= 1")
	}
	addrs := make([]string, n)
	listeners := make(map[int]net.Listener, n)
	local := make([]int, n)
	for r := 0; r < n; r++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range listeners {
				prev.Close()
			}
			return nil, fmt.Errorf("tcp: local rank %d listen: %w", r, err)
		}
		listeners[r] = l
		addrs[r] = l.Addr().String()
		local[r] = r
	}
	return assemble(addrs, listeners, local, 0)
}

// pairKey identifies the unordered rank pair {a, b}.
type pairKey struct{ lo, hi int }

func keyOf(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// assemble runs the rendezvous over pre-bound listeners and starts the
// per-pair goroutines. It owns the listeners from here on. Every link
// queues transport.DefaultDepth packets each way.
func assemble(addrs []string, listeners map[int]net.Listener, local []int, timeout time.Duration) (*Fabric, error) {
	n := len(addrs)
	depth := transport.DefaultDepth
	if timeout == 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)

	f := &Fabric{n: n, local: local, eps: make(map[int]*endpoint, len(local)), done: make(chan struct{})}
	if reg := obs.Active(); reg != nil {
		hosted := make([]bool, n)
		for _, r := range local {
			hosted[r] = true
		}
		f.metrics = reg.NewFabricMetrics("tcp", n, hosted)
		f.metrics.SetQueueDepthFunc(f.queueDepths)
	}
	logDebug("tcp: assembling fabric", "ranks", n, "local", local, "depth", depth)
	isLocal := make(map[int]bool, len(local))
	for _, r := range local {
		isLocal[r] = true
		ep := &endpoint{f: f, rank: r, links: make(map[int]*link, n-1)}
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			ep.links[p] = &link{
				sendq: make(chan transport.Packet, depth),
				recvq: make(chan transport.Packet, depth),
				eof:   make(chan struct{}),
			}
		}
		f.eps[r] = ep
	}
	for _, l := range listeners {
		f.listeners = append(f.listeners, l)
	}

	// The connection plan: one conn per unordered pair touching a hosted
	// rank. The lower rank dials, the higher rank accepts; a pair hosted
	// entirely in this process does both over 127.0.0.1.
	type ends struct {
		dial, accept net.Conn // the hosted side(s) of the pair's conn
	}
	want := make(map[pairKey]*ends)
	dialsFrom := make(map[int][]int) // hosted dialer rank → targets
	acceptsAt := make(map[int]int)   // hosted listener rank → expected inbound conns
	for _, r := range local {
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			want[keyOf(r, p)] = &ends{}
			if r < p {
				dialsFrom[r] = append(dialsFrom[r], p)
			} else if !isLocal[p] {
				acceptsAt[r]++
			}
		}
	}
	// A pair hosted at both ends is dialed locally, so the higher rank's
	// listener also expects that inbound conn.
	for _, r := range local {
		for p := 0; p < r; p++ {
			if isLocal[p] {
				acceptsAt[r]++
			}
		}
	}

	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Accept loops: each hosted listener takes its expected number of
	// inbound connections, validating the hello on each.
	for r, count := range acceptsAt {
		wg.Add(1)
		go func(rank, count int) {
			defer wg.Done()
			l := listeners[rank]
			if d, ok := l.(*net.TCPListener); ok {
				d.SetDeadline(deadline)
			}
			for i := 0; i < count; i++ {
				conn, err := l.Accept()
				if err != nil {
					fail(fmt.Errorf("tcp: rank %d accept: %w", rank, err))
					return
				}
				from, err := acceptHello(conn, rank, deadline)
				if err != nil {
					conn.Close()
					fail(err)
					return
				}
				mu.Lock()
				e := want[keyOf(rank, from)]
				if e == nil || e.accept != nil {
					mu.Unlock()
					conn.Close()
					fail(fmt.Errorf("tcp: rank %d: unexpected connection from rank %d", rank, from))
					return
				}
				e.accept = conn
				mu.Unlock()
			}
		}(r, count)
	}

	// Dial loops: hosted lower ranks connect out, retrying while the
	// peer's listener is not up yet.
	for r, targets := range dialsFrom {
		for _, p := range targets {
			wg.Add(1)
			go func(rank, peer int) {
				defer wg.Done()
				conn, err := dialHello(addrs[peer], rank, peer, deadline)
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				want[keyOf(rank, peer)].dial = conn
				mu.Unlock()
			}(r, p)
		}
	}

	wg.Wait()
	if firstErr != nil {
		for _, e := range want {
			if e.dial != nil {
				e.dial.Close()
			}
			if e.accept != nil {
				e.accept.Close()
			}
		}
		for _, l := range listeners {
			l.Close()
		}
		return nil, firstErr
	}

	// Wire each connection end to its owning rank's link and start the
	// per-end goroutines.
	for key, e := range want {
		lo, hi := key.lo, key.hi
		if isLocal[lo] {
			f.startConn(e.dial, lo, hi)
		}
		if isLocal[hi] {
			f.startConn(e.accept, hi, lo)
		}
	}
	logDebug("tcp: fabric up", "ranks", n, "local", local)
	return f, nil
}

// FabricMetrics returns the fabric's telemetry, nil when telemetry was
// disabled at assembly.
func (f *Fabric) FabricMetrics() *obs.FabricMetrics { return f.metrics }

// queueDepths samples every non-empty send and receive queue of the
// hosted ranks at scrape time.
func (f *Fabric) queueDepths() []obs.QueueDepth {
	var out []obs.QueueDepth
	for _, r := range f.local {
		ep := f.eps[r]
		for peer := 0; peer < f.n; peer++ {
			lk, ok := ep.links[peer]
			if !ok {
				continue
			}
			if d := len(lk.sendq); d > 0 {
				out = append(out, obs.QueueDepth{Label: fmt.Sprintf("sendq %d->%d", r, peer), Depth: d})
			}
			if d := len(lk.recvq); d > 0 {
				out = append(out, obs.QueueDepth{Label: fmt.Sprintf("recvq %d<-%d", r, peer), Depth: d})
			}
		}
	}
	return out
}

// startConn registers conn as owner rank's end of the pair with peer and
// launches its reader and writer goroutines. If the fabric was already
// poisoned (a peer died while later pairs were still being wired), the
// connection is closed instead of started.
func (f *Fabric) startConn(conn net.Conn, owner, peer int) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // collective hops are latency-sensitive
	}
	lk := f.eps[owner].links[peer]
	f.mu.Lock()
	select {
	case <-f.done:
		f.mu.Unlock()
		conn.Close()
		close(lk.eof)
		return
	default:
	}
	f.conns = append(f.conns, conn)
	f.wg.Add(2)
	f.writerWG.Add(1)
	f.mu.Unlock()
	if m := f.metrics; m != nil {
		m.ConnsUp.Add(1)
	}
	logDebug("tcp: link up", "owner", owner, "peer", peer,
		"local", conn.LocalAddr().String(), "remote", conn.RemoteAddr().String())
	go f.readLoop(conn, lk)
	go f.writeLoop(conn, lk)
}

// dialHello connects to addr, retrying until deadline, and performs the
// dialer's half of the hello exchange.
func dialHello(addr string, from, to int, deadline time.Time) (net.Conn, error) {
	var conn net.Conn
	var err error
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err = d.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tcp: rank %d dial rank %d (%s): %w", from, to, addr, err)
		}
		time.Sleep(dialRetryInterval)
	}
	conn.SetDeadline(deadline)
	var hello [12]byte
	copy(hello[:4], magic[:])
	binary.LittleEndian.PutUint32(hello[4:], uint32(from))
	binary.LittleEndian.PutUint32(hello[8:], uint32(to))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcp: rank %d hello to rank %d: %w", from, to, err)
	}
	var reply [12]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcp: rank %d hello reply from rank %d: %w", from, to, err)
	}
	if err := helloVersionErr(reply[:4], from); err != nil {
		conn.Close()
		return nil, err
	}
	if [4]byte(reply[:4]) != magic ||
		binary.LittleEndian.Uint32(reply[4:]) != uint32(to) ||
		binary.LittleEndian.Uint32(reply[8:]) != uint32(from) {
		conn.Close()
		return nil, fmt.Errorf("tcp: rank %d: bad hello reply from %s", from, addr)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// acceptHello performs the listener's half of the hello exchange and
// returns the dialer's rank.
func acceptHello(conn net.Conn, rank int, deadline time.Time) (int, error) {
	conn.SetDeadline(deadline)
	var hello [12]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, fmt.Errorf("tcp: rank %d read hello: %w", rank, err)
	}
	if err := helloVersionErr(hello[:4], rank); err != nil {
		return 0, err
	}
	if [4]byte(hello[:4]) != magic {
		return 0, fmt.Errorf("tcp: rank %d: bad hello magic", rank)
	}
	from := int(binary.LittleEndian.Uint32(hello[4:]))
	to := int(binary.LittleEndian.Uint32(hello[8:]))
	if to != rank || from >= rank || from < 0 {
		return 0, fmt.Errorf("tcp: rank %d: hello claims %d→%d", rank, from, to)
	}
	var reply [12]byte
	copy(reply[:4], magic[:])
	binary.LittleEndian.PutUint32(reply[4:], uint32(rank))
	binary.LittleEndian.PutUint32(reply[8:], uint32(from))
	if _, err := conn.Write(reply[:]); err != nil {
		return 0, fmt.Errorf("tcp: rank %d hello reply: %w", rank, err)
	}
	conn.SetDeadline(time.Time{})
	return from, nil
}

// helloVersionErr distinguishes a peer speaking a different frame
// version (magic prefix "MTP" intact, version byte differs) from plain
// garbage. Catching this before the rank fields are trusted means a
// mixed-version fleet fails the rendezvous loudly instead of misparsing
// the other side's frame headers.
func helloVersionErr(got []byte, rank int) error {
	if [3]byte(got[:3]) == [3]byte{'M', 'T', 'P'} && got[3] != magic[3] {
		return fmt.Errorf("tcp: rank %d: frame version mismatch: peer speaks MTP%c, this build speaks MTP%c",
			rank, got[3], magic[3])
	}
	return nil
}

// readBufBytes sizes the per-connection read buffer: one kernel read
// can deliver many back-to-back frames (chunk-pipelined hops produce
// trains of small ones), so headers and small payloads parse out of
// the buffer instead of costing a syscall each.
const readBufBytes = 64 << 10

// readLoop parses frames off conn into lk.recvq until the fabric closes.
// Any other read failure means a peer died mid-run: the whole fabric is
// poisoned so blocked collectives fail fast with ErrClosed. Frames are
// read through a buffered reader; bytes already buffered keep parsing
// after a close, matching the pre-buffering drain semantics.
func (f *Fabric) readLoop(conn net.Conn, lk *link) {
	defer f.wg.Done()
	defer close(lk.eof)
	if m := f.metrics; m != nil {
		defer m.ConnsUp.Add(-1)
	}
	br := bufio.NewReaderSize(conn, readBufBytes)
	var hdr [headerBytes]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			f.poison()
			return
		}
		size := int(binary.LittleEndian.Uint32(hdr[0:]))
		p := transport.Packet{
			Wire:  int(binary.LittleEndian.Uint32(hdr[4:])),
			Clock: math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:])),
			Job:   binary.LittleEndian.Uint32(hdr[16:]),
		}
		if size > 0 {
			p.Data = transport.GetBuffer(size)
			if _, err := io.ReadFull(br, p.Data); err != nil {
				f.poison()
				return
			}
		}
		// Prefer delivery over the closing signal so frames parsed before
		// (or racing) a shutdown stay observable; only a full queue during
		// teardown drops the packet.
		select {
		case lk.recvq <- p:
			continue
		default:
		}
		select {
		case lk.recvq <- p:
		case <-f.done:
			return
		}
	}
}

// writeBatch bounds how many queued frames one writev coalesces. A
// chunk-pipelined hop enqueues a train of frames back to back; draining
// them into a single vectored write turns S syscalls into one.
const writeBatch = 16

// frameWriter coalesces queued frames into vectored writes: frame
// headers come from a fixed per-connection slab (no per-frame
// allocation) and each flush is one writev covering every pending
// header and payload. Payload buffers are recycled once their bytes
// are on the socket.
type frameWriter struct {
	conn    net.Conn
	hdrs    [writeBatch][headerBytes]byte
	pend    []transport.Packet
	vecs    net.Buffers
	batches *obs.Histogram // frames per flush; nil when telemetry is off
}

func newFrameWriter(conn net.Conn, batches *obs.Histogram) *frameWriter {
	return &frameWriter{
		conn:    conn,
		pend:    make([]transport.Packet, 0, writeBatch),
		vecs:    make(net.Buffers, 0, 2*writeBatch),
		batches: batches,
	}
}

// add queues p for the next flush; full reports a mandatory flush.
func (w *frameWriter) add(p transport.Packet) (full bool) {
	w.pend = append(w.pend, p)
	return len(w.pend) == writeBatch
}

// flush writes every pending frame with one vectored write and recycles
// the payloads. It reports success; a short or failed write poisons the
// connection's fabric at the caller.
func (w *frameWriter) flush() bool {
	if len(w.pend) == 0 {
		return true
	}
	w.vecs = w.vecs[:0]
	for i := range w.pend {
		p := &w.pend[i]
		hdr := &w.hdrs[i]
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(p.Data)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(p.Wire))
		binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(p.Clock))
		binary.LittleEndian.PutUint32(hdr[16:], p.Job)
		w.vecs = append(w.vecs, hdr[:])
		if len(p.Data) > 0 {
			w.vecs = append(w.vecs, p.Data)
		}
	}
	// WriteTo consumes the slice it is called on; hand it a copy so
	// w.vecs keeps its backing array for the next flush.
	out := w.vecs
	if _, err := out.WriteTo(w.conn); err != nil {
		return false
	}
	if w.batches != nil {
		w.batches.Observe(int64(len(w.pend)))
	}
	for _, p := range w.pend {
		transport.PutBuffer(p.Data)
	}
	w.pend = w.pend[:0]
	return true
}

// writeLoop drains lk.sendq onto conn. Each wakeup opportunistically
// batches every frame already queued (bounded by writeBatch) into one
// vectored write, so a pipelined train of chunks costs one syscall
// instead of one per frame. Sent payload buffers are recycled: the
// sender gave them up at Send and the bytes are on the socket. After
// Close the queue's remaining frames are still flushed (Close holds the
// sockets open for the flush window), so farewell messages enqueued
// right before a graceful shutdown reach the peer.
func (f *Fabric) writeLoop(conn net.Conn, lk *link) {
	defer f.writerWG.Done()
	defer f.wg.Done()
	var batches *obs.Histogram
	if m := f.metrics; m != nil {
		batches = m.WritevBatch
	}
	w := newFrameWriter(conn, batches)
	for {
		select {
		case p := <-lk.sendq:
			full := w.add(p)
			for !full {
				select {
				case q := <-lk.sendq:
					full = w.add(q)
					continue
				default:
				}
				break
			}
			if !w.flush() {
				f.poison()
				return
			}
		case <-f.done:
			for {
				select {
				case p := <-lk.sendq:
					if w.add(p) && !w.flush() {
						return
					}
				default:
					w.flush()
					return
				}
			}
		}
	}
}

// poison closes the fabric in response to an unexpected socket failure.
func (f *Fabric) poison() {
	select {
	case <-f.done:
		return // already closing: socket errors are expected teardown
	default:
		logDebug("tcp: fabric poisoned by socket failure", "local", f.local)
		f.Close()
	}
}

// Size implements transport.Transport.
func (f *Fabric) Size() int { return f.n }

// LocalRanks returns the ranks hosted by this fabric, in Config order.
func (f *Fabric) LocalRanks() []int { return append([]int(nil), f.local...) }

// Endpoint implements transport.Transport. Only hosted ranks have an
// endpoint; asking for a remote rank is a wiring bug and panics.
func (f *Fabric) Endpoint(rank int) transport.Endpoint {
	if rank < 0 || rank >= f.n {
		panic(fmt.Sprintf("tcp: rank %d out of range [0,%d)", rank, f.n))
	}
	ep, ok := f.eps[rank]
	if !ok {
		panic(fmt.Sprintf("tcp: rank %d is not hosted by this fabric (local ranks %v)", rank, f.local))
	}
	return ep
}

// Close implements transport.Transport: every socket and listener is torn
// down, blocked Sends and Recvs return ErrClosed, and packets already
// parsed into receive queues stay drainable. Frames enqueued before the
// close are flushed (bounded by flushTimeout) so a graceful shutdown
// does not truncate the conversation mid-queue. Close is idempotent.
func (f *Fabric) Close() error {
	f.closeOnce.Do(func() {
		logDebug("tcp: closing fabric", "local", f.local)
		// Closing done under mu fences startConn: afterwards no new
		// connection is registered and no writerWG.Add races the Wait.
		f.mu.Lock()
		close(f.done)
		f.mu.Unlock()
		flushed := make(chan struct{})
		go func() {
			f.writerWG.Wait()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-time.After(flushTimeout):
		}
		f.mu.Lock()
		conns := append([]net.Conn(nil), f.conns...)
		f.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		for _, l := range f.listeners {
			l.Close()
		}
	})
	return nil
}

// Rank implements transport.Endpoint.
func (e *endpoint) Rank() int { return e.rank }

// Size implements transport.Endpoint.
func (e *endpoint) Size() int { return e.f.n }

// Send implements transport.Endpoint: the packet is queued for the pair's
// writer goroutine. Send blocks while the queue is full and returns
// ErrClosed once the fabric is down.
func (e *endpoint) Send(to int, p transport.Packet) error {
	lk, ok := e.links[to]
	if !ok {
		panic(fmt.Sprintf("tcp: rank %d send to invalid rank %d", e.rank, to))
	}
	if p.Wire < 0 || int64(p.Wire) > math.MaxUint32 {
		return fmt.Errorf("tcp: wire size %d does not fit the frame header", p.Wire)
	}
	if int64(len(p.Data)) > math.MaxUint32 {
		return fmt.Errorf("tcp: payload of %d bytes does not fit the frame header", len(p.Data))
	}
	select {
	case <-e.f.done:
		return transport.ErrClosed
	default:
	}
	select {
	case lk.sendq <- p:
		if m := e.f.metrics; m != nil {
			m.OnSend(e.rank, to, p.Wire, len(p.Data))
		}
		return nil
	case <-e.f.done:
		return transport.ErrClosed
	}
}

// delivered counts p against the fabric metrics on its way out of Recv.
func (e *endpoint) delivered(from int, p transport.Packet) (transport.Packet, error) {
	if m := e.f.metrics; m != nil {
		m.OnRecv(from, e.rank, p.Wire, len(p.Data))
	}
	return p, nil
}

// Recv implements transport.Endpoint: it blocks until the pair's reader
// goroutine has parsed a frame. Like Loopback, already-delivered packets
// are preferred over the closing signal.
func (e *endpoint) Recv(from int) (transport.Packet, error) {
	lk, ok := e.links[from]
	if !ok {
		panic(fmt.Sprintf("tcp: rank %d recv from invalid rank %d", e.rank, from))
	}
	select {
	case p := <-lk.recvq:
		return e.delivered(from, p)
	default:
	}
	select {
	case p := <-lk.recvq:
		return e.delivered(from, p)
	case <-e.f.done:
	}
	// The fabric is closing. The link's reader is the sole recvq
	// producer: wait for it to settle (Close's teardown of the socket
	// bounds this) so frames already parsed or mid-parse land, then take
	// whatever was delivered ahead of the close.
	<-lk.eof
	select {
	case p := <-lk.recvq:
		return e.delivered(from, p)
	default:
	}
	return transport.Packet{}, transport.ErrClosed
}
