//go:build unix

package shm

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"marsit/internal/transport"
)

// One mmap'd file per ordered (from, to) rank pair holds a fixed-capacity
// SPSC byte ring. The sender is the sole writer, the receiver the sole
// reader, so the only synchronization needed is a pair of monotonically
// increasing cursors — head (bytes published) and tail (bytes consumed) —
// published with atomic stores that double as release/acquire fences for
// the plain memcpys into the data region. A frame is visible only once
// head covers all of it, so a reader never observes a partial frame.
//
// File layout (all fields little-endian; cursor slots are spread across
// cache lines so the writer's head stores never false-share with the
// reader's tail stores):
//
//	offset 0    uint32 magic "MSHM"
//	offset 4    uint32 layout version
//	offset 8    uint64 data capacity in bytes
//	offset 64   uint64 head — total bytes published (atomic, writer-owned)
//	offset 128  uint64 tail — total bytes consumed (atomic, reader-owned)
//	offset 192  uint32 closed — nonzero poisons the ring (either side)
//	offset 256  data region, capacity bytes, written circularly
//
// Frames reuse the TCP v2 layout so jobmux works unchanged over shm:
//
//	uint32 payload len | uint32 Wire | uint64 Clock bits | uint32 Job | payload
const (
	ringMagic   = 0x4d53484d // "MSHM"
	ringVersion = 1

	fileHeader  = 256
	offMagic    = 0
	offVersion  = 4
	offCapacity = 8
	offHead     = 64
	offTail     = 128
	offClosed   = 192

	// frameHeader mirrors tcp's headerBytes: len, Wire, Clock, Job.
	frameHeader = 4 + 4 + 8 + 4
)

// ring is one mapped SPSC ring file.
type ring struct {
	file *os.File
	mem  []byte // the whole mapping; nil after unmap
	data []byte // mem[fileHeader:]
	cap  uint64

	head   *uint64 // into the mapping, 8-byte aligned
	tail   *uint64
	closed *uint32
}

// ringName is the rendezvous filename for the ordered pair (from, to).
func ringName(from, to int) string { return fmt.Sprintf("ring-%d-%d", from, to) }

// createRing builds the ring file for (from, to): a fully sized,
// header-initialized temp file renamed into place so an opener never
// sees a partially initialized ring. The creating side keeps it mapped.
func createRing(dir string, from, to, capacity int) (*ring, error) {
	final := filepath.Join(dir, ringName(from, to))
	if _, err := os.Lstat(final); err == nil {
		return nil, fmt.Errorf("shm: %s already exists (stale ring file — reuse of the rendezvous dir?)", final)
	}
	tmp, err := os.CreateTemp(dir, ".ring-*")
	if err != nil {
		return nil, fmt.Errorf("shm: create ring: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if err := tmp.Truncate(int64(fileHeader + capacity)); err != nil {
		cleanup()
		return nil, fmt.Errorf("shm: size ring: %w", err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[offMagic:], ringMagic)
	binary.LittleEndian.PutUint32(hdr[offVersion:], ringVersion)
	binary.LittleEndian.PutUint64(hdr[offCapacity:], uint64(capacity))
	if _, err := tmp.WriteAt(hdr[:], 0); err != nil {
		cleanup()
		return nil, fmt.Errorf("shm: init ring header: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		cleanup()
		return nil, fmt.Errorf("shm: publish ring: %w", err)
	}
	r, err := mapRing(tmp)
	if err != nil {
		tmp.Close()
		return nil, err
	}
	return r, nil
}

// ringPollCap is the longest pause between looks for a peer's ring
// file while the peer has not created it yet.
const ringPollCap = 2 * time.Millisecond

// openRing waits for the peer-created ring file on transport.Retry's
// schedule until the deadline, then maps it. This is the filesystem
// rendezvous replacing the socket handshake: every fabric creates all
// its outbound rings before opening any inbound one, so the wait
// always ends once the peers launch.
func openRing(dir string, from, to int, deadline time.Time) (*ring, error) {
	final := filepath.Join(dir, ringName(from, to))
	var f *os.File
	err := transport.Retry(deadline, ringPollCap, func() (bool, error) {
		var err error
		f, err = os.OpenFile(final, os.O_RDWR, 0)
		return os.IsNotExist(err), err
	})
	switch {
	case os.IsNotExist(err):
		return nil, fmt.Errorf("shm: rendezvous timed out waiting for %s (peer rank %d not up?): %w", final, from, err)
	case err != nil:
		return nil, fmt.Errorf("shm: open ring: %w", err)
	}
	r, err := mapRing(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// mapRing validates the header and maps the file. It takes ownership of
// f on success.
func mapRing(f *os.File) (*ring, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("shm: stat ring: %w", err)
	}
	var hdr [16]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("shm: read ring header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[offMagic:]); m != ringMagic {
		return nil, fmt.Errorf("shm: %s is not a marsit ring (magic %#x)", f.Name(), m)
	}
	if v := binary.LittleEndian.Uint32(hdr[offVersion:]); v != ringVersion {
		return nil, fmt.Errorf("shm: ring layout version mismatch: file has v%d, this build speaks v%d", v, ringVersion)
	}
	capacity := binary.LittleEndian.Uint64(hdr[offCapacity:])
	if int64(fileHeader)+int64(capacity) != st.Size() {
		return nil, fmt.Errorf("shm: ring %s is %d bytes, header declares capacity %d", f.Name(), st.Size(), capacity)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shm: mmap ring: %w", err)
	}
	return &ring{
		file:   f,
		mem:    mem,
		data:   mem[fileHeader:],
		cap:    capacity,
		head:   (*uint64)(ptrAt(mem, offHead)),
		tail:   (*uint64)(ptrAt(mem, offTail)),
		closed: (*uint32)(ptrAt(mem, offClosed)),
	}, nil
}

// poison marks the ring closed for both sides; sticky and idempotent.
func (r *ring) poison() { atomic.StoreUint32(r.closed, 1) }

// poisoned reports whether either side closed the ring.
func (r *ring) poisoned() bool { return atomic.LoadUint32(r.closed) != 0 }

// buffered returns the bytes published but not yet consumed.
func (r *ring) buffered() uint64 {
	return atomic.LoadUint64(r.head) - atomic.LoadUint64(r.tail)
}

// writeFrame copies one frame in at head and publishes it. The caller
// (the single writer) has already verified frameHeader+len(p.Data) bytes
// are free.
func (r *ring) writeFrame(p transport.Packet) {
	head := atomic.LoadUint64(r.head)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.Wire))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(p.Clock))
	binary.LittleEndian.PutUint32(hdr[16:], p.Job)
	r.copyIn(head%r.cap, hdr[:])
	r.copyIn((head+frameHeader)%r.cap, p.Data)
	atomic.StoreUint64(r.head, head+frameHeader+uint64(len(p.Data)))
}

// readFrame consumes the frame at tail. The caller (the single reader)
// has already observed head > tail; the writer publishes whole frames,
// so the full frame is readable. The payload is copied into a pooled
// buffer the receiver recycles after decoding.
func (r *ring) readFrame() transport.Packet {
	tail := atomic.LoadUint64(r.tail)
	var hdr [frameHeader]byte
	r.copyOut(tail%r.cap, hdr[:])
	n := binary.LittleEndian.Uint32(hdr[0:])
	p := transport.Packet{
		Wire:  int(binary.LittleEndian.Uint32(hdr[4:])),
		Clock: math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:])),
		Job:   binary.LittleEndian.Uint32(hdr[16:]),
		Data:  transport.GetBuffer(int(n)),
	}
	r.copyOut((tail+frameHeader)%r.cap, p.Data)
	atomic.StoreUint64(r.tail, tail+frameHeader+uint64(n))
	return p
}

// copyIn writes b into the data region at pos, wrapping once if needed.
func (r *ring) copyIn(pos uint64, b []byte) {
	n := copy(r.data[pos:], b)
	if n < len(b) {
		copy(r.data, b[n:])
	}
}

// copyOut reads len(b) bytes from the data region at pos, wrapping once.
func (r *ring) copyOut(pos uint64, b []byte) {
	n := copy(b, r.data[pos:])
	if n < len(b) {
		copy(b[n:], r.data)
	}
}

// unmap releases the mapping (only when no operation can still touch
// it) and always closes the file descriptor.
func (r *ring) unmap(safe bool) {
	if safe && r.mem != nil {
		syscall.Munmap(r.mem)
		r.mem, r.data = nil, nil
	}
	r.file.Close()
}
