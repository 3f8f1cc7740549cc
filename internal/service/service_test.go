package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"marsit/internal/obs"
	"marsit/internal/transport"
)

// startFleet boots an n-rank daemon fleet over one in-process fabric
// and returns the leader. Peers run to completion in the background;
// everything is torn down via t.Cleanup.
func startFleet(t *testing.T, n int, mut func(r int, cfg *Config)) *Daemon {
	t.Helper()
	fab := transport.NewLoopback(n)
	daemons := make([]*Daemon, n)
	for r := n - 1; r >= 0; r-- {
		cfg := Config{Rank: r, Fabric: fab, RateInterval: 20 * time.Millisecond}
		if mut != nil {
			mut(r, &cfg)
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		daemons[r] = d
		t.Cleanup(func() { d.Close() }) //nolint:errcheck // teardown
		if r != 0 {
			go d.Run() //nolint:errcheck // peers exit on shutdown/teardown
		}
	}
	return daemons[0]
}

// await polls the leader until job id is terminal.
func await(t *testing.T, d *Daemon, id uint32) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := d.Status(id)
		if err != nil {
			t.Fatalf("status %d: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %q", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitRunning polls the leader until job id is running.
func awaitRunning(t *testing.T, d *Daemon, id uint32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := d.Status(id)
		if err != nil {
			t.Fatalf("status %d: %v", id, err)
		}
		if st.State == StateRunning {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %d ended %q before it was seen running", id, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never started", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentTenancy is the headline claim: two jobs with different
// collectives overlap on one live 4-rank fabric — one of them under
// faultwrap jitter — and both replay bit-identical against the
// sequential engine, while the jobs-in-flight gauges record the
// overlap. B is submitted only once A runs, and A's jitter (2 ms a
// send, ≈ 0.2 s over its 240 sequential hops) keeps it in flight long
// past B's submission however loaded the machine is.
func TestConcurrentTenancy(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetActive(reg)()

	d := startFleet(t, 4, nil)
	idA, err := d.Submit(JobSpec{Collective: "rar", Dim: 257, Rounds: 40, Seed: 11, Check: true,
		JitterMS: 2, JitterSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	awaitRunning(t, d, idA)
	idB, err := d.Submit(JobSpec{Collective: "hier", Dim: 128, Rounds: 30, Seed: 23, Check: true})
	if err != nil {
		t.Fatal(err)
	}

	stA, stB := await(t, d, idA), await(t, d, idB)
	for _, st := range []JobStatus{stA, stB} {
		if st.State != StateDone || !st.Checked {
			t.Fatalf("job %d: state=%q checked=%v err=%q", st.ID, st.State, st.Checked, st.Error)
		}
		if st.Clock <= 0 || st.WireBytes <= 0 {
			t.Fatalf("job %d: empty result numbers: t=%v bytes=%d", st.ID, st.Clock, st.WireBytes)
		}
		if st.StartedAt.IsZero() || st.FinishedAt.IsZero() {
			t.Fatalf("job %d: missing timestamps", st.ID)
		}
	}

	live, peak := d.InFlight()
	if live != 0 || peak != 2 {
		t.Fatalf("in-flight accounting: live=%d peak=%d, want 0/2", live, peak)
	}
	if v := reg.Gauge("marsit_jobs_in_flight").Value(); v != 0 {
		t.Fatalf("marsit_jobs_in_flight = %d after both jobs finished", v)
	}
	if v := reg.Gauge("marsit_jobs_in_flight_peak").Value(); v != 2 {
		t.Fatalf("marsit_jobs_in_flight_peak = %d, want 2", v)
	}
	if v := reg.Counter("marsit_jobs_completed_total").Value(); v != 2 {
		t.Fatalf("marsit_jobs_completed_total = %d, want 2", v)
	}
}

// TestCancelRunningJob holds a job open with heavy jitter, cancels it
// mid-flight, and proves the fleet survives: a follow-up checked job
// still verifies on the same fabric.
func TestCancelRunningJob(t *testing.T) {
	d := startFleet(t, 4, nil)
	id, err := d.Submit(JobSpec{Collective: "rar", Dim: 1024, Rounds: 400, Seed: 5,
		JitterMS: 10, JitterSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	awaitRunning(t, d, id) // let it reach running before pulling the plug
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if st := await(t, d, id); st.State != StateCanceled {
		t.Fatalf("state=%q err=%q, want canceled", st.State, st.Error)
	}
	if err := d.Cancel(id); err != nil { // terminal cancel is a no-op
		t.Fatalf("second cancel: %v", err)
	}

	id2, err := d.Submit(JobSpec{Collective: "hier", Dim: 96, Rounds: 3, Seed: 31, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := await(t, d, id2); st.State != StateDone || !st.Checked {
		t.Fatalf("post-cancel job: state=%q checked=%v err=%q", st.State, st.Checked, st.Error)
	}
}

// TestAdmissionQueueBounds pins the backpressure boundary: with one
// slot and a one-deep queue, the third live submission is refused.
func TestAdmissionQueueBounds(t *testing.T) {
	d := startFleet(t, 2, func(_ int, cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.QueueDepth = 1
	})
	hold := JobSpec{Collective: "rar", Dim: 512, Rounds: 300, Seed: 1, JitterMS: 10, JitterSeed: 3}
	id1, err := d.Submit(hold)
	if err != nil {
		t.Fatal(err)
	}
	// The admitter drains the queue into its running slot almost
	// immediately, so give the queue a moment to hold a second job.
	var id2 uint32
	deadline := time.Now().Add(5 * time.Second)
	for {
		id2, err = d.Submit(hold)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second submit never queued: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	// id1 running (slot held), id2 queued (queue full): refuse the third.
	if _, err := d.Submit(hold); err != ErrQueueFull {
		t.Fatalf("third submit: got %v, want ErrQueueFull", err)
	}
	for _, id := range []uint32{id2, id1} {
		if err := d.Cancel(id); err != nil {
			t.Fatal(err)
		}
		await(t, d, id)
	}
}

// TestSubmitValidation pins the admission gate's direct refusals.
func TestSubmitValidation(t *testing.T) {
	d := startFleet(t, 2, nil)
	bad := []JobSpec{
		{Collective: "no-such-collective", Dim: 8, Rounds: 1},
		{Collective: "rar", Dim: 0, Rounds: 1},
		{Collective: "rar", Dim: 8, Rounds: 0},
	}
	for _, sp := range bad {
		if _, err := d.Submit(sp); err == nil {
			t.Fatalf("Submit accepted %+v", sp)
		}
	}
}

// httpFleet mounts the leader's control plane the way marsit-node does
// (beside /metrics on the telemetry mux) and returns the base URL.
func httpFleet(t *testing.T, n int) (*Daemon, string) {
	t.Helper()
	d := startFleet(t, n, nil)
	mux := http.NewServeMux()
	h := d.Handler()
	mux.Handle("/jobs", h)
	mux.Handle("/jobs/", h)
	mux.Handle("/shutdown", h)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return d, srv.URL
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() }) //nolint:errcheck // teardown
	return resp
}

// TestHTTPControlPlane drives a job through the HTTP API end to end:
// submit → 202, status polling → done+checked, list, and the refusal
// codes (400 invalid spec, 404 unknown id).
func TestHTTPControlPlane(t *testing.T) {
	d, base := httpFleet(t, 3)

	resp := postJSON(t, base+"/jobs", JobSpec{Collective: "gossip", Dim: 64, Rounds: 6, Seed: 9, Check: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var sub struct {
		ID uint32 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || sub.ID == 0 {
		t.Fatalf("submit body: id=%d err=%v", sub.ID, err)
	}

	await(t, d, sub.ID)
	var st JobStatus
	get := func(path string, into any) int {
		t.Helper()
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close() //nolint:errcheck // test
		if into != nil && r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(into); err != nil {
				t.Fatal(err)
			}
		}
		return r.StatusCode
	}
	if code := get(fmt.Sprintf("/jobs/%d", sub.ID), &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.State != StateDone || !st.Checked {
		t.Fatalf("state=%q checked=%v err=%q", st.State, st.Checked, st.Error)
	}

	var list []JobStatus
	if code := get("/jobs", &list); code != http.StatusOK || len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("list: code=%d %+v", code, list)
	}

	if resp := postJSON(t, base+"/jobs", JobSpec{Collective: "rar"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/jobs", map[string]any{"colective": "typo"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}
	if code := get("/jobs/999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", code)
	}
	if code := get("/jobs/bogus", nil); code != http.StatusNotFound {
		t.Fatalf("non-numeric id: %d, want 404", code)
	}
}

// TestHTTPShutdown stops the fleet over HTTP and checks every daemon's
// Run unblocks cleanly.
func TestHTTPShutdown(t *testing.T) {
	n := 3
	fab := transport.NewLoopback(n)
	daemons := make([]*Daemon, n)
	for r := n - 1; r >= 0; r-- {
		var err error
		daemons[r], err = New(Config{Rank: r, Fabric: fab})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	runErr := make(chan error, n)
	for _, d := range daemons {
		go func() { runErr <- d.Run() }()
	}
	srv := httptest.NewServer(daemons[0].Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/shutdown", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shutdown: %d", resp.StatusCode)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatalf("daemon run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a daemon never stopped")
		}
	}
}

// TestNonLeaderRefusals pins that the control plane lives on rank 0
// only.
func TestNonLeaderRefusals(t *testing.T) {
	fab := transport.NewLoopback(2)
	d0, err := New(Config{Rank: 0, Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := New(Config{Rank: 1, Fabric: fab})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d0.Close(); d1.Close() }) //nolint:errcheck // teardown
	go d1.Run()                                  //nolint:errcheck // teardown via Close

	if _, err := d1.Submit(JobSpec{Collective: "rar", Dim: 8, Rounds: 1}); err != ErrNotLeader {
		t.Fatalf("peer Submit: %v", err)
	}
	if err := d1.Cancel(1); err != ErrNotLeader {
		t.Fatalf("peer Cancel: %v", err)
	}
	if _, err := d1.Status(1); err != ErrNotLeader {
		t.Fatalf("peer Status: %v", err)
	}
	if err := d1.Shutdown(); err != ErrNotLeader {
		t.Fatalf("peer Shutdown: %v", err)
	}
}
