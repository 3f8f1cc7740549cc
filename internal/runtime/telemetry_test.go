package runtime_test

import (
	"testing"

	"marsit/internal/obs"
	"marsit/internal/runtime/equivtest"

	_ "marsit/internal/core"
)

// This file pins the telemetry layer's non-interference contract from
// the engine side: with a registry and tracer active, the full
// cross-engine acceptance matrix must still reproduce the sequential engine bit for bit, because
// trace events and transport counters observe the schedule without
// touching results, wire bytes or α–β clocks.

// TestCollectiveEquivalenceTelemetryOn re-runs the registry-generated
// equivalence matrix under an active registry with an attached tracer:
// the ISSUE's non-negotiable. The tracer must actually have captured
// hop events, so the pass cannot be a silently-disabled fast path.
func TestCollectiveEquivalenceTelemetryOn(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8, 1<<14) // covers the matrix's largest shape (M=8)
	reg.AttachTracer(tracer)
	defer obs.SetActive(reg)()

	equivtest.RunRegistry(t)
	if tracer.TotalEvents() == 0 {
		t.Fatal("equivalence matrix ran without emitting a single trace event: tracing is not wired")
	}
	if len(reg.Fabrics()) == 0 {
		t.Fatal("equivalence matrix built no instrumented fabrics: transport metrics are not wired")
	}
}
