// Package netsim is the network substrate of the reproduction. The paper
// measures wall-clock behaviour on a 32-node GPU cluster; here the
// cluster is simulated deterministically with an α–β cost model:
//
//   - every message pays a fixed latency α plus Bytes·β of serialization,
//   - each worker's NIC sends (and receives) one message at a time, so
//     hub congestion at a parameter server and the pipelining of ring
//     steps emerge from the model rather than being hard-coded,
//   - compression, decompression and gradient computation advance a
//     worker's clock through explicit charges.
//
// Per-worker simulated clocks plus a per-phase breakdown (computation /
// compression / transmission) are exactly the quantities Figures 1a, 4a
// and 5 of the paper plot.
package netsim

import (
	"cmp"
	"fmt"
	"slices"
)

// CostModel holds the constants of the α–β simulation.
type CostModel struct {
	// Latency is the per-message latency α in seconds.
	Latency float64
	// BytePeriod is β: seconds per byte of payload on a link.
	BytePeriod float64
	// CompressPerElem is the time to compress one gradient element
	// (sign extraction, Bernoulli draw, packing), in seconds.
	CompressPerElem float64
	// DecompressPerElem is the time to expand one element back to full
	// precision, in seconds.
	DecompressPerElem float64
	// FlopPeriod is seconds per scalar multiply-accumulate of model
	// computation (forward+backward), used by the trainer.
	FlopPeriod float64
}

// DefaultCostModel mirrors a plausible public-cloud configuration:
// 50 µs latency, 10 Gbit/s links, 0.5 G elem/s (de)compression and
// 50 GFLOP/s effective training throughput.
func DefaultCostModel() CostModel {
	return CostModel{
		Latency:           50e-6,
		BytePeriod:        8e-10,
		CompressPerElem:   2e-9,
		DecompressPerElem: 2e-9,
		FlopPeriod:        2e-11,
	}
}

// ScaledCostModel returns the default model with every per-byte and
// per-element constant multiplied by factor, keeping the latency fixed.
//
// The reproduction's models are 10³–10⁵ parameters while the paper's
// are 10⁷–10⁹; at 10 Gbit/s a tiny message is latency-dominated and
// every method costs α per hop, hiding the serialization differences
// the paper measures. Scaling β (and the per-element compression and
// flop costs) by the model-size ratio restores the paper's regime —
// serialization ≫ latency — without touching the algorithms.
// factor ≈ paper-model-params / repro-model-params (10³ is typical).
func ScaledCostModel(factor float64) CostModel {
	if factor <= 0 {
		panic("netsim: non-positive scale factor")
	}
	m := DefaultCostModel()
	m.BytePeriod *= factor
	m.FlopPeriod *= factor
	// Per-element (de)compression is memory-bound and an order of
	// magnitude cheaper than the wire at paper scale (the paper reports
	// Marsit's sign packing as a minor overhead), so it scales less.
	compressFactor := factor / 10
	if compressFactor < 1 {
		compressFactor = 1
	}
	m.CompressPerElem *= compressFactor
	m.DecompressPerElem *= compressFactor
	return m
}

// Message is one point-to-point transfer within an Exchange round.
type Message struct {
	From, To int
	Bytes    int
}

// Phase identifies where simulated time was spent.
type Phase int

// Phases of a training iteration, matching Figure 5's decomposition.
const (
	PhaseCompute Phase = iota
	PhaseCompress
	PhaseTransmit
	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseCompress:
		return "compress"
	case PhaseTransmit:
		return "transmit"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Breakdown is per-phase simulated seconds.
type Breakdown [numPhases]float64

// Compute returns the computation seconds.
func (b Breakdown) Compute() float64 { return b[PhaseCompute] }

// Compress returns the compression+decompression seconds.
func (b Breakdown) Compress() float64 { return b[PhaseCompress] }

// Transmit returns the transmission seconds.
func (b Breakdown) Transmit() float64 { return b[PhaseTransmit] }

// Total returns the sum over phases.
func (b Breakdown) Total() float64 {
	var s float64
	for _, v := range b {
		s += v
	}
	return s
}

// Cluster simulates n workers with individual clocks.
type Cluster struct {
	Model CostModel

	n      int
	clock  []float64
	phases []Breakdown
	bytes  []int64 // bytes sent per worker
	// sorted, sAvail, rAvail and done are Exchange's scratch, kept so
	// that a round of exchanges allocates nothing.
	sorted               []Message
	sAvail, rAvail, done []float64
}

// NewCluster builds a simulated cluster of n ≥ 1 workers.
func NewCluster(n int, model CostModel) *Cluster {
	if n < 1 {
		panic("netsim: cluster needs n >= 1")
	}
	return &Cluster{
		Model:  model,
		n:      n,
		clock:  make([]float64, n),
		phases: make([]Breakdown, n),
		bytes:  make([]int64, n),
		sAvail: make([]float64, n),
		rAvail: make([]float64, n),
		done:   make([]float64, n),
	}
}

// Size returns the number of workers.
func (c *Cluster) Size() int { return c.n }

// Clock returns worker w's current simulated time.
func (c *Cluster) Clock(w int) float64 {
	c.check(w)
	return c.clock[w]
}

// Time returns the cluster-wide simulated time (max over workers).
func (c *Cluster) Time() float64 {
	var t float64
	for _, v := range c.clock {
		if v > t {
			t = v
		}
	}
	return t
}

// BytesSent returns the bytes worker w has put on the wire.
func (c *Cluster) BytesSent(w int) int64 {
	c.check(w)
	return c.bytes[w]
}

// TotalBytes returns the cluster-wide bytes on the wire.
func (c *Cluster) TotalBytes() int64 {
	var s int64
	for _, b := range c.bytes {
		s += b
	}
	return s
}

// PhaseBreakdown returns worker w's per-phase time.
func (c *Cluster) PhaseBreakdown(w int) Breakdown {
	c.check(w)
	return c.phases[w]
}

// MeanBreakdown averages the per-phase breakdown over workers.
func (c *Cluster) MeanBreakdown() Breakdown {
	var out Breakdown
	for _, p := range c.phases {
		for i := range out {
			out[i] += p[i]
		}
	}
	for i := range out {
		out[i] /= float64(c.n)
	}
	return out
}

// AddCompute advances worker w's clock by sec seconds of computation.
func (c *Cluster) AddCompute(w int, sec float64) { c.charge(w, PhaseCompute, sec) }

// AddComputeFlops charges flops scalar operations of model computation.
func (c *Cluster) AddComputeFlops(w int, flops float64) {
	c.charge(w, PhaseCompute, flops*c.Model.FlopPeriod)
}

// AddCompress charges compression of elems elements on worker w.
func (c *Cluster) AddCompress(w int, elems int) {
	c.charge(w, PhaseCompress, float64(elems)*c.Model.CompressPerElem)
}

// AddDecompress charges decompression of elems elements on worker w.
func (c *Cluster) AddDecompress(w int, elems int) {
	c.charge(w, PhaseCompress, float64(elems)*c.Model.DecompressPerElem)
}

func (c *Cluster) charge(w int, p Phase, sec float64) {
	c.check(w)
	if sec < 0 {
		panic("netsim: negative time charge")
	}
	c.clock[w] += sec
	c.phases[w][p] += sec
}

// Barrier synchronizes all clocks to the cluster maximum (the implicit
// synchronization at the end of a collective). The waiting time is
// attributed to transmission, since in these workloads stragglers wait
// on the wire.
func (c *Cluster) Barrier() {
	t := c.Time()
	for w := range c.clock {
		c.phases[w][PhaseTransmit] += t - c.clock[w]
		c.clock[w] = t
	}
}

// Exchange executes one communication round. All messages are considered
// posted simultaneously; per-NIC serialization and cut-through forwarding
// determine arrival times:
//
//	sendStart  = max(sender clock, sender NIC available)
//	sender NIC busy for Bytes·β
//	arrival    = sendStart + α + Bytes·β
//	recv NIC   serializes overlapping arrivals
//
// Afterwards each worker's clock advances to the completion of all its
// sends and receives; the advance is accounted as transmission time.
// Message processing order is deterministic (sorted by From, then To,
// then Bytes).
func (c *Cluster) Exchange(msgs []Message) {
	c.sorted = append(c.sorted[:0], msgs...)
	slices.SortFunc(c.sorted, func(a, b Message) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Bytes, b.Bytes))
	})

	sAvail, rAvail := c.sAvail, c.rAvail
	done := c.done // completion horizon per worker
	copy(sAvail, c.clock)
	copy(rAvail, c.clock)
	copy(done, c.clock)

	for _, m := range c.sorted {
		c.check(m.From)
		c.check(m.To)
		if m.Bytes < 0 {
			panic("netsim: negative message size")
		}
		if m.From == m.To {
			continue // local copy is free
		}
		ser := float64(m.Bytes) * c.Model.BytePeriod
		sendStart := sAvail[m.From]
		sAvail[m.From] = sendStart + ser
		// Cut-through: the tail of the message reaches the receiver α
		// after the sender pushes it, but the receiver NIC must be free
		// to accept the stream.
		recvStart := sendStart + c.Model.Latency
		if rAvail[m.To] > recvStart {
			recvStart = rAvail[m.To]
		}
		recvDone := recvStart + ser
		rAvail[m.To] = recvDone

		if sAvail[m.From] > done[m.From] {
			done[m.From] = sAvail[m.From]
		}
		if recvDone > done[m.To] {
			done[m.To] = recvDone
		}
		c.bytes[m.From] += int64(m.Bytes)
	}

	for w := 0; w < c.n; w++ {
		if done[w] > c.clock[w] {
			c.phases[w][PhaseTransmit] += done[w] - c.clock[w]
			c.clock[w] = done[w]
		}
	}
}

// AdvanceTransmit advances worker w's clock to at least t, attributing
// the wait to transmission. An earlier t is a no-op. Collectives with a
// virtual hub (parameter server) use this to apply externally computed
// arrival times.
func (c *Cluster) AdvanceTransmit(w int, t float64) {
	c.check(w)
	if t > c.clock[w] {
		c.phases[w][PhaseTransmit] += t - c.clock[w]
		c.clock[w] = t
	}
}

// AccountBytes adds wire bytes to worker w's counter without advancing
// time (used when timing is computed externally, e.g. hub exchanges).
func (c *Cluster) AccountBytes(w int, bytes int) {
	c.check(w)
	if bytes < 0 {
		panic("netsim: negative byte accounting")
	}
	c.bytes[w] += int64(bytes)
}

// Reset zeroes clocks, phases and byte counters, keeping the model.
func (c *Cluster) Reset() {
	for w := 0; w < c.n; w++ {
		c.clock[w] = 0
		c.phases[w] = Breakdown{}
		c.bytes[w] = 0
	}
}

func (c *Cluster) check(w int) {
	if w < 0 || w >= c.n {
		panic(fmt.Sprintf("netsim: worker %d out of range [0,%d)", w, c.n))
	}
}
