package netsim

import "testing"

func TestAdvanceTransmit(t *testing.T) {
	c := NewCluster(2, model())
	c.AdvanceTransmit(0, 1.5)
	if !feq(c.Clock(0), 1.5) || !feq(c.PhaseBreakdown(0).Transmit(), 1.5) {
		t.Fatal("AdvanceTransmit forward")
	}
	// Earlier target is a no-op.
	c.AdvanceTransmit(0, 1.0)
	if !feq(c.Clock(0), 1.5) {
		t.Fatal("AdvanceTransmit moved backwards")
	}
	if c.Clock(1) != 0 {
		t.Fatal("wrong worker advanced")
	}
}

func TestAccountBytes(t *testing.T) {
	c := NewCluster(2, model())
	c.AccountBytes(1, 500)
	if c.BytesSent(1) != 500 || c.BytesSent(0) != 0 {
		t.Fatal("AccountBytes per worker")
	}
	if c.Clock(1) != 0 {
		t.Fatal("AccountBytes advanced time")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative bytes")
		}
	}()
	c.AccountBytes(0, -1)
}

func TestScaledCostModel(t *testing.T) {
	base := DefaultCostModel()
	m := ScaledCostModel(1000)
	if m.Latency != base.Latency {
		t.Fatal("latency must not scale")
	}
	if !feq(m.BytePeriod, base.BytePeriod*1000) || !feq(m.FlopPeriod, base.FlopPeriod*1000) {
		t.Fatal("per-byte/per-flop not scaled")
	}
	if !feq(m.CompressPerElem, base.CompressPerElem*100) {
		t.Fatalf("compression should scale by factor/10: %v", m.CompressPerElem)
	}
	// Small factors keep compression at least at baseline.
	m2 := ScaledCostModel(2)
	if m2.CompressPerElem < base.CompressPerElem {
		t.Fatal("compression scaled below baseline")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on factor 0")
		}
	}()
	ScaledCostModel(0)
}

// TestChunkingPipelines: the cut-through model lets back-to-back
// chunks stream — the sender's next send starts as soon as its NIC is
// free, so splitting a transfer into four chunks costs exactly the
// same as one big message (one latency, same serialization). This is
// why the chunk-pipelined ring hops are byte- and time-neutral under
// this model while shrinking peak buffer sizes.
func TestChunkingPipelines(t *testing.T) {
	m := model()
	one := NewCluster(2, m)
	one.Exchange([]Message{{0, 1, 1000}})

	four := NewCluster(2, m)
	for i := 0; i < 4; i++ {
		four.Exchange([]Message{{0, 1, 250}})
	}
	if !feq(four.Clock(1), one.Clock(1)) {
		t.Fatalf("chunked stream %v != single message %v", four.Clock(1), one.Clock(1))
	}
	if !feq(one.Clock(1), m.Latency+1000e-6) {
		t.Fatalf("single message time %v", one.Clock(1))
	}
}
