//go:build unix

package shm

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"marsit/internal/transport"
	"marsit/internal/transport/transporttest"
)

// TestConformance runs the shared transport contract suite over the
// in-process constructor (all ranks hosted, default ring size).
func TestConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transport.Transport {
		f, err := NewLocal(n)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", n, err)
		}
		return f
	})
}

// TestConformanceTinyRings re-runs the suite with rings barely larger
// than one frame, so every exchange exercises wrap-around copies and
// the full-ring send backoff.
func TestConformanceTinyRings(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transport.Transport {
		dir := t.TempDir()
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		f, err := New(Config{Dir: dir, Ranks: n, LocalRanks: ranks, RingBytes: 96})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return f
	})
}

// crossFabrics assembles one fabric per rank over a shared rendezvous
// directory — the real multi-process shape (one creator and one opener
// per ring) inside a single test process.
func crossFabrics(t *testing.T, n int) []*Fabric {
	t.Helper()
	dir := t.TempDir()
	fabrics := make([]*Fabric, n)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			f, err := New(Config{Dir: dir, Ranks: n, LocalRanks: []int{rank}, DialTimeout: 10 * time.Second})
			fabrics[rank] = f
			errs <- err
		}(r)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("assemble rank fabric: %v", err)
		}
	}
	t.Cleanup(func() {
		for _, f := range fabrics {
			f.Close()
		}
	})
	return fabrics
}

// TestCrossProcessShape exchanges frames between per-rank fabrics that
// only share the rendezvous directory, checking the mmap'd rings carry
// payload, Wire, Clock and Job across fabric boundaries in FIFO order.
func TestCrossProcessShape(t *testing.T) {
	const n, count = 3, 40
	fabrics := crossFabrics(t, n)
	done := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			ep := fabrics[rank].Endpoint(rank)
			next, prev := (rank+1)%n, (rank+n-1)%n
			for i := 0; i < count; i++ {
				p := transport.Packet{
					Data:  []byte{byte(rank), byte(i)},
					Wire:  100*rank + i,
					Clock: float64(i) / 4,
					Job:   uint32(i % 5),
				}
				if err := ep.Send(next, p); err != nil {
					done <- err
					return
				}
				got, err := ep.Recv(prev)
				if err != nil {
					done <- err
					return
				}
				if len(got.Data) != 2 || got.Data[0] != byte(prev) || got.Data[1] != byte(i) ||
					got.Wire != 100*prev+i || got.Clock != float64(i)/4 || got.Job != uint32(i%5) {
					t.Errorf("rank %d step %d: got %+v", rank, i, got)
				}
				done <- nil
			}
		}(r)
	}
	for i := 0; i < n*count; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("exchange: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cross-fabric exchange stalled")
		}
	}
}

// TestLatePeerAssembles starts rank 1's fabric only once rank 0 has
// created its outbound ring and is waiting for ring-1-0: the ring file
// appears after the opener started looking, and the fabric still
// assembles and carries frames both ways.
func TestLatePeerAssembles(t *testing.T) {
	dir := t.TempDir()
	cfg := func(rank int) Config {
		return Config{Dir: dir, Ranks: 2, LocalRanks: []int{rank}, DialTimeout: 10 * time.Second}
	}
	type built struct {
		f   *Fabric
		err error
	}
	first := make(chan built, 1)
	go func() {
		f, err := New(cfg(0))
		first <- built{f, err}
	}()
	// ring-0-1 exists once rank 0 is past creating and into its wait;
	// the extra pause lets its first looks for ring-1-0 miss.
	for {
		if _, err := os.Stat(filepath.Join(dir, ringName(0, 1))); err == nil {
			break
		}
		select {
		case b := <-first:
			t.Fatalf("rank 0 returned before its peer started: %v", b.err)
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(20 * time.Millisecond)
	f1, err := New(cfg(1))
	if err != nil {
		t.Fatalf("late rank 1: %v", err)
	}
	defer f1.Close()
	b := <-first
	if b.err != nil {
		t.Fatalf("rank 0 waiting for the late peer: %v", b.err)
	}
	defer b.f.Close()
	for from, f := range []*Fabric{b.f, f1} {
		to := 1 - from
		if err := f.Endpoint(from).Send(to, transport.Packet{Data: []byte{byte(from)}, Wire: 1}); err != nil {
			t.Fatalf("rank %d send: %v", from, err)
		}
	}
	for to, f := range []*Fabric{b.f, f1} {
		if p, err := f.Endpoint(to).Recv(1 - to); err != nil || len(p.Data) != 1 || p.Data[0] != byte(1-to) {
			t.Fatalf("rank %d recv: %v %v", to, p.Data, err)
		}
	}
}

// TestCloseFromPeerPoisonsRing is the crash contract: when one rank's
// fabric closes (a dying rank's deferred Close), a peer blocked in Recv
// on the shared ring unblocks with ErrClosed instead of spinning
// forever.
func TestCloseFromPeerPoisonsRing(t *testing.T) {
	fabrics := crossFabrics(t, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := fabrics[1].Endpoint(1).Recv(0)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	fabrics[0].Close() // rank 0 dies
	select {
	case err := <-errc:
		if err != transport.ErrClosed {
			t.Fatalf("Recv after peer close: %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer Close did not unblock Recv — ring not poisoned")
	}
	// The poisoned ring also fails the surviving side's sends.
	if err := fabrics[1].Endpoint(1).Send(0, transport.Packet{Data: []byte("x"), Wire: 1}); err != transport.ErrClosed {
		t.Fatalf("Send on poisoned ring: %v, want ErrClosed", err)
	}
}

// TestDrainAfterPeerClose pins the delivery-over-close preference:
// frames a rank published before dying stay drainable by the peer, and
// only then does the poison surface.
func TestDrainAfterPeerClose(t *testing.T) {
	fabrics := crossFabrics(t, 2)
	ep0 := fabrics[0].Endpoint(0)
	for i := 0; i < 3; i++ {
		if err := ep0.Send(1, transport.Packet{Data: []byte{byte(i)}, Wire: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	fabrics[0].Close()
	ep1 := fabrics[1].Endpoint(1)
	for i := 0; i < 3; i++ {
		p, err := ep1.Recv(0)
		if err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
		if len(p.Data) != 1 || p.Data[0] != byte(i) || p.Wire != i {
			t.Fatalf("drain %d: got %+v", i, p)
		}
	}
	if _, err := ep1.Recv(0); err != transport.ErrClosed {
		t.Fatalf("Recv after drain: %v, want ErrClosed", err)
	}
}

// TestOversizedFrameFailsLoudly: a frame that cannot ever fit the ring
// errors instead of deadlocking the sender.
func TestOversizedFrameFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	f, err := New(Config{Dir: dir, Ranks: 2, LocalRanks: []int{0, 1}, RingBytes: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	err = f.Endpoint(0).Send(1, transport.Packet{Data: make([]byte, 128), Wire: 128})
	if err == nil || !strings.Contains(err.Error(), "exceeds ring capacity") {
		t.Fatalf("oversized send: %v, want ring-capacity error", err)
	}
}

// TestStaleRingFileRejected: a leftover ring file from a previous run
// fails assembly loudly instead of silently splicing two fleets.
func TestStaleRingFileRejected(t *testing.T) {
	dir := t.TempDir()
	f, err := New(Config{Dir: dir, Ranks: 2, LocalRanks: []int{0}, Group: []int{0, 1}, DialTimeout: 100 * time.Millisecond})
	if err == nil {
		// Rank 0 created ring-0-1 but times out waiting for ring-1-0.
		f.Close()
		t.Fatal("half-assembled fabric unexpectedly succeeded")
	}
	if !strings.Contains(err.Error(), "rendezvous timed out") {
		t.Fatalf("lone rank: %v, want rendezvous timeout", err)
	}
	// ring-0-1 is now stale in dir; a rerun must refuse it.
	_, err = New(Config{Dir: dir, Ranks: 2, LocalRanks: []int{0}, Group: []int{0, 1}, DialTimeout: 100 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "stale ring file") {
		t.Fatalf("stale dir reuse: %v, want stale-ring error", err)
	}
}

// TestNotColocatedErrors: links outside the co-located group fail with
// a descriptive error, they do not block.
func TestNotColocatedErrors(t *testing.T) {
	dir := t.TempDir()
	f, err := New(Config{Dir: dir, Ranks: 3, LocalRanks: []int{0, 1}, Group: []int{0, 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()
	if err := f.Endpoint(0).Send(2, transport.Packet{Data: []byte("x"), Wire: 1}); err == nil || !strings.Contains(err.Error(), "not co-located") {
		t.Fatalf("send outside group: %v, want not-co-located error", err)
	}
	if _, err := f.Endpoint(0).Recv(2); err == nil || !strings.Contains(err.Error(), "not co-located") {
		t.Fatalf("recv outside group: %v, want not-co-located error", err)
	}
}

// TestVersionMismatchFailsFast mirrors the TCP hello contract across
// build generations: a ring with a different layout version is refused
// with an error naming both versions instead of being misparsed.
func TestVersionMismatchFailsFast(t *testing.T) {
	dir := t.TempDir()
	r, err := createRing(dir, 0, 1, 1024)
	if err != nil {
		t.Fatalf("createRing: %v", err)
	}
	binary.LittleEndian.PutUint32(r.mem[offVersion:], ringVersion+1)
	r.unmap(true)
	_, err = openRing(dir, 0, 1, time.Now().Add(time.Second))
	if err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("future-version ring: %v, want version-mismatch error", err)
	}
}
