package faultwrap

import (
	"testing"
	"time"

	"marsit/internal/obs"
	"marsit/internal/transport"
	"marsit/internal/transport/tcp"
	"marsit/internal/transport/transporttest"
)

// suiteCfg keeps the conformance runs brisk: real jitter, but small
// enough that the hundreds of suite sends stay well under a second.
var suiteCfg = Config{Seed: 7, Base: 5 * time.Microsecond, Jitter: 40 * time.Microsecond}

// TestWrappedLoopbackConformance runs the full transport contract
// against a jittered Loopback: delay injection must not disturb FIFO
// order, Packet fields, blocking semantics, Close behaviour, or the
// forwarded fabric metrics.
func TestWrappedLoopbackConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transport.Transport {
		return Wrap(transport.NewLoopback(n), suiteCfg)
	})
}

// TestWrappedTCPConformance runs the same contract against a jittered
// loopback-TCP fabric.
func TestWrappedTCPConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, n int) transport.Transport {
		inner, err := tcp.NewLocal(n)
		if err != nil {
			t.Fatalf("tcp.NewLocal(%d): %v", n, err)
		}
		return Wrap(inner, suiteCfg)
	})
}

// TestDrawsAreDeterministic pins the delay schedule as a pure function
// of (Seed, from, to, index): two wrappers with the same seed draw the
// same delays, a different seed draws different ones, and the straggler
// factor scales exactly.
func TestDrawsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Base: 10 * time.Microsecond, Jitter: time.Millisecond}
	mk := func(c Config) *endpoint {
		return Wrap(transport.NewLoopback(4), c).Endpoint(1).(*endpoint)
	}
	a, b := mk(cfg), mk(cfg)
	var first []time.Duration
	for i := 0; i < 32; i++ {
		da, db := a.draw(2), b.draw(2)
		if da != db {
			t.Fatalf("draw %d diverged: %v vs %v", i, da, db)
		}
		if da < cfg.Base || da >= cfg.Base+cfg.Jitter {
			t.Fatalf("draw %d = %v outside [Base, Base+Jitter)", i, da)
		}
		first = append(first, da)
	}
	other := mk(Config{Seed: 43, Base: cfg.Base, Jitter: cfg.Jitter})
	same := true
	for i := 0; i < 32; i++ {
		if other.draw(2) != first[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 43 reproduced seed 42's delay schedule")
	}

	slow := cfg
	slow.Straggler, slow.StragglerFactor = 1, 3
	s := mk(slow)
	for i := 0; i < 32; i++ {
		// The factor multiplies the float draw before truncation to a
		// Duration, so allow a few nanoseconds of rounding skew.
		got, want := s.draw(2), 3*first[i]
		if diff := got - want; diff > 4 || diff < -4 {
			t.Fatalf("straggler draw %d = %v, want ~%v", i, got, want)
		}
	}
	// Ranks other than the straggler are unscaled.
	fast := Wrap(transport.NewLoopback(4), slow).Endpoint(0).(*endpoint)
	base := Wrap(transport.NewLoopback(4), cfg).Endpoint(0).(*endpoint)
	for i := 0; i < 8; i++ {
		if got, want := fast.draw(2), base.draw(2); got != want {
			t.Fatalf("non-straggler draw %d = %v, want %v", i, got, want)
		}
	}
}

// TestPacketPassthroughAndCounters checks a wrapped send forwards the
// packet bit-for-bit and that the obs delay counters tick.
func TestPacketPassthroughAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetActive(reg)()
	tr := Wrap(transport.NewLoopback(2), Config{Seed: 1, Base: 20 * time.Microsecond})
	defer tr.Close()
	want := transport.Packet{Data: []byte{1, 2, 3}, Wire: 77, Clock: 0.125}
	if err := tr.Endpoint(0).Send(1, want); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := tr.Endpoint(1).Recv(0)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(got.Data) != string(want.Data) || got.Wire != want.Wire || got.Clock != want.Clock {
		t.Fatalf("packet perturbed: got %+v, want %+v", got, want)
	}
	if n := reg.Counter("marsit_faultwrap_delays_total").Value(); n != 1 {
		t.Fatalf("delays counter = %d, want 1", n)
	}
	if ns := reg.Counter("marsit_faultwrap_delay_nanos_total").Value(); ns < int64(20*time.Microsecond) {
		t.Fatalf("delay nanos = %d, want >= base", ns)
	}
}
