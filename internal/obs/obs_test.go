package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
	h := NewHistogram(1, 2, 4)
	for _, v := range []int64{1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106 {
		t.Fatalf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	want := []int64{1, 1, 1, 1} // ≤1, ≤2, ≤4, +Inf
	for i, n := range want {
		if got := h.buckets[i].Load(); got != n {
			t.Fatalf("bucket %d = %d, want %d", i, got, n)
		}
	}
}

func TestRegistryCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("marsit_rounds_total", "rank", "0")
	b := r.Counter("marsit_rounds_total", "rank", "0")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	if c := r.Counter("marsit_rounds_total", "rank", "1"); c == a {
		t.Fatal("different labels must return distinct counters")
	}
}

func TestActiveSwitch(t *testing.T) {
	if Active() != nil {
		t.Fatal("telemetry must be off by default in tests")
	}
	r := NewRegistry()
	restore := SetActive(r)
	if Active() != r {
		t.Fatal("SetActive did not install the registry")
	}
	if Enable() != r {
		t.Fatal("Enable must return the already-active registry")
	}
	restore()
	if Active() != nil {
		t.Fatal("restore did not clear the registry")
	}
}

func TestFabricMetricsCounters(t *testing.T) {
	r := NewRegistry()
	fm := r.NewFabricMetrics("loopback", 3, nil)
	fm.OnSend(0, 1, 100, 80)
	fm.OnSend(0, 1, 50, 40)
	fm.OnRecv(0, 1, 150, 120)
	fm.OnSend(2, 0, 7, 7)
	if fm.FramesSent(0, 1) != 2 || fm.WireSent(0, 1) != 150 || fm.BytesSent(0, 1) != 120 {
		t.Fatalf("pair (0,1) sent: frames=%d wire=%d bytes=%d",
			fm.FramesSent(0, 1), fm.WireSent(0, 1), fm.BytesSent(0, 1))
	}
	if fm.FramesRecv(0, 1) != 1 || fm.WireRecv(0, 1) != 150 {
		t.Fatalf("pair (0,1) recv: frames=%d wire=%d", fm.FramesRecv(0, 1), fm.WireRecv(0, 1))
	}
	if got := fm.TotalWireSentFrom(0); got != 150 {
		t.Fatalf("TotalWireSentFrom(0) = %d, want 150", got)
	}
	frames, wire, payload := fm.Totals()
	if frames != 3 || wire != 157 || payload != 127 {
		t.Fatalf("totals = %d/%d/%d", frames, wire, payload)
	}
}

func TestFabricMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	fm := r.NewFabricMetrics("tcp", 4, nil)
	var wg sync.WaitGroup
	for from := 0; from < 4; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				to := (from + 1) % 4
				fm.OnSend(from, to, 10, 8)
				fm.OnRecv((from+3)%4, from, 10, 8)
			}
		}(from)
	}
	wg.Wait()
	frames, wire, _ := fm.Totals()
	if frames != 4000 || wire != 40000 {
		t.Fatalf("totals after concurrent adds: frames=%d wire=%d", frames, wire)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	fm := r.NewFabricMetrics("tcp", 2, []bool{true, false})
	fm.OnSend(0, 1, 123, 100)
	fm.OnRecv(1, 0, 456, 400)
	fm.OnSend(1, 0, 9, 9) // not hosted: must be scoped out
	fm.WritevBatch.Observe(3)
	fm.ConnsUp.Set(1)
	fm.SetQueueDepthFunc(func() []QueueDepth {
		return []QueueDepth{{Label: "sendq", Depth: 2}}
	})
	r.Pool.Gets.Add(10)
	r.Pool.Hits.Add(9)
	r.Counter("marsit_rounds_total", "rank", "0").Add(5)
	r.Gauge("marsit_up").Set(1)

	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`marsit_transport_wire_sent_bytes_total{fabric="tcp",id="1",from="0",to="1"} 123`,
		`marsit_transport_wire_recv_bytes_total{fabric="tcp",id="1",from="1",to="0"} 456`,
		`marsit_transport_writev_batch_frames_count{fabric="tcp",id="1"} 1`,
		`marsit_transport_conns_up{fabric="tcp",id="1"} 1`,
		`marsit_transport_queue_depth{fabric="tcp",id="1",queue="sendq"} 2`,
		`marsit_pool_gets_total 10`,
		`marsit_pool_hits_total 9`,
		`marsit_rounds_total{rank="0"} 5`,
		`marsit_up 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing series %q in rendering:\n%s", want, out)
		}
	}
	if strings.Contains(out, `from="1",to="0"} 9`) {
		t.Errorf("non-hosted sent pair leaked into rendering:\n%s", out)
	}
}

func TestTracerEmitAndLabels(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.SetLabel(1, "marsit")
	tr.SetPhase(1, "reduce-scatter")
	tr.Emit(Event{Kind: KindHop, Rank: 1, Hop: 0, Bytes: 64, Wire: 32, VClock: 1.5,
		Start: time.Now(), Dur: time.Millisecond})
	tr.SetPhase(1, "all-gather")
	tr.Emit(Event{Kind: KindHop, Rank: 1, Hop: 1})
	ev := tr.Events(1)
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Collective != "marsit" || ev[0].Phase != "reduce-scatter" {
		t.Fatalf("event 0 label/phase: %+v", ev[0])
	}
	if ev[1].Phase != "all-gather" {
		t.Fatalf("event 1 phase: %+v", ev[1])
	}
	if tr.Len(0) != 0 {
		t.Fatal("rank 0 must be empty")
	}
}

func TestTracerDropOnFull(t *testing.T) {
	tr := NewTracer(1, 2)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: KindHop, Rank: 0, Hop: i})
	}
	if tr.Len(0) != 2 || tr.Dropped(0) != 3 {
		t.Fatalf("len=%d dropped=%d, want 2/3", tr.Len(0), tr.Dropped(0))
	}
	// Dropping never overwrites: earliest events survive.
	ev := tr.Events(0)
	if ev[0].Hop != 0 || ev[1].Hop != 1 {
		t.Fatalf("surviving hops: %d, %d", ev[0].Hop, ev[1].Hop)
	}
}

// TestTracerConcurrentSnapshot exercises a reader snapshotting while a
// writer emits — the live /debug/trace scenario. Run under -race this
// pins the drop-on-full design's race freedom.
func TestTracerConcurrentSnapshot(t *testing.T) {
	tr := NewTracer(1, 1<<12)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1<<12; i++ {
			tr.Emit(Event{Kind: KindHop, Rank: 0, Hop: i, Bytes: i})
		}
	}()
	for i := 0; i < 100; i++ {
		ev := tr.Events(0)
		for j, e := range ev {
			if e.Hop != j {
				t.Fatalf("snapshot %d: event %d has hop %d", i, j, e.Hop)
			}
		}
	}
	<-done
}

func TestTraceJSON(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.SetLabel(0, "rar")
	tr.SetPhase(0, "reduce-scatter")
	base := time.Now()
	tr.Emit(Event{Kind: KindHop, Rank: 0, Hop: 0, Bytes: 400, Wire: 200,
		VClock: 0.25, Start: base, Dur: 3 * time.Millisecond})
	tr.Emit(Event{Kind: KindHop, Rank: 1, Hop: 2, Bytes: 40, Wire: 20,
		Start: base.Add(time.Millisecond), Dur: time.Millisecond})

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, b.String())
	}
	var slices, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
			args, ok := e["args"].(map[string]any)
			if !ok {
				t.Fatalf("slice without args: %v", e)
			}
			for _, k := range []string{"collective", "phase", "hop", "bytes", "wire", "vclock"} {
				if _, ok := args[k]; !ok {
					t.Fatalf("slice args missing %q: %v", k, args)
				}
			}
		case "M":
			meta++
		}
	}
	if slices != 2 || meta != 2 {
		t.Fatalf("got %d slices, %d metadata events; want 2 and 2", slices, meta)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	fm := r.NewFabricMetrics("loopback", 2, nil)
	fm.OnSend(0, 1, 10, 8)
	tr := NewTracer(2, 8)
	tr.Emit(Event{Kind: KindHop, Rank: 0})
	r.AttachTracer(tr)

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "marsit_transport_frames_sent_total") {
		t.Fatalf("/metrics: code %d body:\n%s", code, body)
	}
	code, body = get("/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: code %d", code)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/debug/trace returned no events")
	}
}

// TestServeUnknownPath: the listener serves /metrics and /debug/trace
// and nothing else.
func TestServeUnknownPath(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/jobs", srv.Addr()))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/jobs: code %d, want 404", resp.StatusCode)
	}
}

func TestServeTraceNotEnabled(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/trace", srv.Addr()))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace without tracer: code %d, want 404", resp.StatusCode)
	}
}
