//go:build !unix

// Shared-memory rings need mmap; on platforms without it the package
// compiles to constructors that fail loudly so callers can fall back to
// the TCP fabric.
package shm

import (
	"errors"
	"time"

	"marsit/internal/obs"
	"marsit/internal/transport"
)

// DefaultRingBytes mirrors the unix build's per-ring capacity.
const DefaultRingBytes = 1 << 24

// ErrUnsupported is returned by New and NewLocal on platforms without
// shared-memory mappings.
var ErrUnsupported = errors.New("shm: shared-memory transport requires a unix platform")

// Config mirrors the unix build's configuration.
type Config struct {
	Dir         string
	Ranks       int
	LocalRanks  []int
	Group       []int
	RingBytes   int
	DialTimeout time.Duration
}

// Fabric is never constructed on non-unix platforms.
type Fabric struct{}

// New always fails with ErrUnsupported.
func New(Config) (*Fabric, error) { return nil, ErrUnsupported }

// NewLocal always fails with ErrUnsupported.
func NewLocal(int) (*Fabric, error) { return nil, ErrUnsupported }

// FabricMetrics satisfies the telemetry accessor contract.
func (f *Fabric) FabricMetrics() *obs.FabricMetrics { return nil }

// Size implements transport.Transport.
func (f *Fabric) Size() int { return 0 }

// Endpoint implements transport.Transport.
func (f *Fabric) Endpoint(int) transport.Endpoint { panic("shm: unsupported platform") }

// Close implements transport.Transport.
func (f *Fabric) Close() error { return nil }
