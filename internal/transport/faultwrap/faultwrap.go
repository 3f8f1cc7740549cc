// Package faultwrap is a fault-injecting middleware for any
// transport.Transport: it wraps a backend (the in-process Loopback, the
// TCP fabric, whatever comes next) and delays every Send by a duration
// drawn from a seeded per-ordered-rank-pair distribution, optionally
// multiplying one straggler rank's delays. Jitter, link asymmetry and
// stragglers thus become testable wall-clock phenomena on an otherwise
// unmodified fabric.
//
// The wrapper is correctness-transparent by construction: the sleep
// happens on the sender's own goroutine before the inner Send, so
// per-pair FIFO order is preserved and the Packet — payload, Wire,
// Clock — is forwarded untouched. Results, wire bytes and α–β virtual
// clocks are therefore bit-identical to the unwrapped run at any seed;
// only wall-clock time moves. The equivalence matrix pins this
// (equivtest.JitterBackends), and the transporttest conformance suite
// runs against wrapped fabrics directly.
//
// Delay draws come from rng.PCG streams keyed by (Seed, from, to), so a
// fixed seed yields the same delay schedule on every run regardless of
// fabric backend.
package faultwrap

import (
	"sync"
	"time"

	"marsit/internal/obs"
	"marsit/internal/rng"
	"marsit/internal/transport"
)

// Config parameterizes the injected delays. The zero value injects
// nothing (Wrap is then a transparent pass-through with intact
// determinism plumbing).
type Config struct {
	// Seed roots the per-pair delay streams; all draws are a pure
	// function of (Seed, from, to, draw index).
	Seed uint64
	// Base is a fixed delay added to every Send.
	Base time.Duration
	// Jitter is the width of the uniform random extra delay: each Send
	// sleeps Base + U[0, Jitter).
	Jitter time.Duration
	// Straggler designates one rank whose send delays are multiplied by
	// StragglerFactor. Ignored while StragglerFactor <= 1, so the zero
	// value (rank 0, factor 0) injects no straggler.
	Straggler       int
	StragglerFactor float64
}

// Transport wraps an inner fabric with send-delay injection.
type Transport struct {
	inner transport.Transport
	cfg   Config

	mu  sync.Mutex
	eps map[int]*endpoint

	// delays/delayNanos count injected sleeps when a registry was
	// active at Wrap time (nil otherwise).
	delays     *obs.Counter
	delayNanos *obs.Counter
}

// Wrap builds the delay-injecting view of inner. The wrapper implements
// transport.Transport; Close closes the inner fabric.
func Wrap(inner transport.Transport, cfg Config) *Transport {
	t := &Transport{inner: inner, cfg: cfg, eps: map[int]*endpoint{}}
	if reg := obs.Active(); reg != nil {
		t.delays = reg.Counter("marsit_faultwrap_delays_total")
		t.delayNanos = reg.Counter("marsit_faultwrap_delay_nanos_total")
	}
	return t
}

// Size implements transport.Transport.
func (t *Transport) Size() int { return t.inner.Size() }

// Close implements transport.Transport.
func (t *Transport) Close() error { return t.inner.Close() }

// Endpoint implements transport.Transport. Wrapped endpoints are built
// lazily so a fabric hosting a subset of ranks (the TCP backend) is
// only asked for the endpoints actually used.
func (t *Transport) Endpoint(rank int) transport.Endpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ep, ok := t.eps[rank]; ok {
		return ep
	}
	n := t.inner.Size()
	ep := &endpoint{tr: t, inner: t.inner.Endpoint(rank), streams: make([]*rng.PCG, n)}
	for to := 0; to < n; to++ {
		ep.streams[to] = rng.NewStream(t.cfg.Seed, 0xfa117<<16|uint64(rank)<<8|uint64(to))
	}
	if t.cfg.StragglerFactor > 1 && rank == t.cfg.Straggler {
		ep.factor = t.cfg.StragglerFactor
	} else {
		ep.factor = 1
	}
	t.eps[rank] = ep
	return ep
}

// FabricMetrics forwards the inner fabric's telemetry accessor (nil
// when the inner backend has none or was built without a registry), so
// a wrapped fabric satisfies the same metrics contract as a bare one.
func (t *Transport) FabricMetrics() *obs.FabricMetrics {
	if m, ok := t.inner.(interface{ FabricMetrics() *obs.FabricMetrics }); ok {
		return m.FabricMetrics()
	}
	return nil
}

// endpoint delays sends on its owning rank's goroutine. The per-
// destination streams inherit the endpoint's single-goroutine contract,
// so draws are deterministic in (Seed, from, to, index).
type endpoint struct {
	tr      *Transport
	inner   transport.Endpoint
	streams []*rng.PCG
	factor  float64
}

// Rank implements transport.Endpoint.
func (e *endpoint) Rank() int { return e.inner.Rank() }

// Size implements transport.Endpoint.
func (e *endpoint) Size() int { return e.inner.Size() }

// Recv implements transport.Endpoint: receives are never delayed (the
// injected latency already sits on the sender side of the link).
func (e *endpoint) Recv(from int) (transport.Packet, error) { return e.inner.Recv(from) }

// Send implements transport.Endpoint: sleep the drawn delay, then
// forward the packet bit-for-bit.
func (e *endpoint) Send(to int, p transport.Packet) error {
	if d := e.draw(to); d > 0 {
		time.Sleep(d)
		if c := e.tr.delays; c != nil {
			c.Inc()
			e.tr.delayNanos.Add(int64(d))
		}
	}
	return e.inner.Send(to, p)
}

// draw samples the next delay for a send to rank to.
func (e *endpoint) draw(to int) time.Duration {
	cfg := &e.tr.cfg
	if cfg.Base <= 0 && cfg.Jitter <= 0 {
		return 0
	}
	d := float64(cfg.Base)
	if cfg.Jitter > 0 {
		d += e.streams[to].Float64() * float64(cfg.Jitter)
	}
	return time.Duration(d * e.factor)
}
