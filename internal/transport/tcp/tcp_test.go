package tcp_test

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"marsit/internal/transport"
	"marsit/internal/transport/tcp"
	"marsit/internal/transport/transporttest"
)

// TestTCPConformance runs the shared transport conformance suite against
// real sockets on the loopback interface.
func TestTCPConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transport.Transport {
		f, err := tcp.NewLocal(n)
		if err != nil {
			t.Fatalf("NewLocal(%d): %v", n, err)
		}
		return f
	})
}

// lateStart is how long the late rank of buildSplitFabrics waits: long
// enough for its peers to listen and see their first dials refused.
const lateStart = 50 * time.Millisecond

// buildSplitFabrics assembles one logical fabric from per-rank Fabric
// instances — the multi-process shape, each rank with its own listener
// and sockets. Rank late (none when negative) starts lateStart after
// its peers, whose dials to it are then refused until it listens. The
// reserve-then-rebind address pattern can collide with other test
// binaries' ephemeral listeners, so assembly retries on fresh ports.
func buildSplitFabrics(t *testing.T, n, late int) []*tcp.Fabric {
	t.Helper()
	const attempts = 3
	var errs []error
	for try := 0; try < attempts; try++ {
		addrs := reserveAddrs(t, n)
		fabrics := make([]*tcp.Fabric, n)
		errs = make([]error, n)
		var build sync.WaitGroup
		for r := 0; r < n; r++ {
			build.Add(1)
			go func(rank int) {
				defer build.Done()
				if rank == late {
					time.Sleep(lateStart)
				}
				fabrics[rank], errs[rank] = tcp.New(tcp.Config{
					Addrs:       addrs,
					LocalRanks:  []int{rank},
					DialTimeout: 10 * time.Second,
				})
			}(r)
		}
		build.Wait()
		failed := false
		for _, err := range errs {
			if err != nil {
				failed = true
			}
		}
		if !failed {
			return fabrics
		}
		for _, f := range fabrics {
			if f != nil {
				f.Close()
			}
		}
		t.Logf("attempt %d hit a rendezvous port collision, retrying: %v", try, errs)
	}
	t.Fatalf("split-fabric rendezvous kept failing after %d attempts: %v", attempts, errs)
	return nil
}

// TestTCPSplitFabrics assembles the multi-process shape and runs a ring
// exchange with a large payload across the per-rank fabrics.
func TestTCPSplitFabrics(t *testing.T) {
	const n = 4
	fabrics := buildSplitFabrics(t, n, -1)
	defer func() {
		for _, f := range fabrics {
			f.Close()
		}
	}()

	for r, f := range fabrics {
		if got := f.LocalRanks(); len(got) != 1 || got[0] != r {
			t.Fatalf("rank %d fabric hosts %v", r, got)
		}
	}

	// Ring exchange with a payload large enough to span many TCP segments.
	const steps, payload = 10, 1 << 18
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			ep := fabrics[rank].Endpoint(rank)
			next, prev := (rank+1)%n, (rank+n-1)%n
			for s := 0; s < steps; s++ {
				data := make([]byte, payload)
				for i := range data {
					data[i] = byte(rank + s + i)
				}
				if err := ep.Send(next, transport.Packet{Data: data, Wire: payload, Clock: float64(s)}); err != nil {
					t.Errorf("rank %d step %d send: %v", rank, s, err)
					return
				}
				p, err := ep.Recv(prev)
				if err != nil {
					t.Errorf("rank %d step %d recv: %v", rank, s, err)
					return
				}
				if len(p.Data) != payload || p.Wire != payload || p.Clock != float64(s) {
					t.Errorf("rank %d step %d: header %d/%d/%v", rank, s, len(p.Data), p.Wire, p.Clock)
					return
				}
				for i := 0; i < payload; i += 997 {
					if p.Data[i] != byte(prev+s+i) {
						t.Errorf("rank %d step %d: corrupt byte %d", rank, s, i)
						return
					}
				}
				transport.PutBuffer(p.Data)
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("split-fabric ring exchange deadlocked")
	}
}

// TestTCPLatePeerAssembles starts rank 1's fabric after its peers':
// rank 0's dial to it is refused until it listens, and the fabric still
// assembles and carries a frame around the ring.
func TestTCPLatePeerAssembles(t *testing.T) {
	const n = 3
	fabrics := buildSplitFabrics(t, n, 1)
	defer func() {
		for _, f := range fabrics {
			f.Close()
		}
	}()
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			ep := fabrics[rank].Endpoint(rank)
			if err := ep.Send((rank+1)%n, transport.Packet{Data: []byte{byte(rank)}, Wire: 1}); err != nil {
				t.Errorf("rank %d send: %v", rank, err)
				return
			}
			prev := (rank + n - 1) % n
			if p, err := ep.Recv(prev); err != nil || len(p.Data) != 1 || p.Data[0] != byte(prev) {
				t.Errorf("rank %d recv: %v %v", rank, p.Data, err)
			}
		}(r)
	}
	wg.Wait()
}

// TestTCPPeerDeathPoisonsFabric checks that a peer disappearing mid-run
// surfaces as ErrClosed on the survivor instead of hanging it.
func TestTCPPeerDeathPoisonsFabric(t *testing.T) {
	fabrics := buildSplitFabrics(t, 2, -1)
	a, b := fabrics[0], fabrics[1]
	defer a.Close()

	got := make(chan error, 1)
	go func() {
		_, err := a.Endpoint(0).Recv(1)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	b.Close() // rank 1 "dies"
	select {
	case err := <-got:
		if err != transport.ErrClosed {
			t.Fatalf("survivor got %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("survivor still blocked after peer death")
	}
}

// TestTCPConfigValidation covers the rejection paths.
func TestTCPConfigValidation(t *testing.T) {
	if _, err := tcp.New(tcp.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := tcp.New(tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, LocalRanks: []int{2}}); err == nil {
		t.Fatal("out-of-range local rank accepted")
	}
	if _, err := tcp.New(tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, LocalRanks: []int{0, 0}}); err == nil {
		t.Fatal("duplicate local rank accepted")
	}
	// A dial with nobody listening must fail within the timeout, not hang.
	addrs := reserveAddrs(t, 2) // addrs[1] was released: nothing listens there
	start := time.Now()
	_, err := tcp.New(tcp.Config{
		Addrs:       addrs,
		LocalRanks:  []int{0},
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("unreachable peer accepted")
	}
	// The dial gives up at the deadline: at most one capped pause (20 ms)
	// past it would be an overshoot, and 1 s covers a loaded machine.
	if bound := 300*time.Millisecond + 20*time.Millisecond + time.Second; time.Since(start) > bound {
		t.Fatalf("timeout not honored: %v, bound %v", time.Since(start), bound)
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// reserveAddrs picks n distinct loopback addresses that were free at
// call time by binding and releasing ephemeral ports.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}
