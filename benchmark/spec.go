package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// This file is the single declaration of what the benchmark measures:
// the workloads, the end-to-end metrics with their regression bounds,
// and the per-layer metrics. BENCHMARK.json at the repository root is
// its rendering (`benchmark -print-spec`); benchmark_test.go pins the
// two against each other and against what a run emits.

// runSeconds is the measured window of one run (BENCHMARK.json's
// run_seconds).
const runSeconds = 15

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloadDefs = []workloadDef{
	{"ring_marsit", "the paper's one-bit ring alone at D=1e6 on iid signs: bitvec, core.MergeSigns and rng do over 90% of the work, the wire moves 125 KB a hop"},
	{"ring_rar", "same harness and inputs on the full-precision ring: compression kernels idle, the float codec and 2 MB frames do everything; the bypass for kernel work"},
	{"mix_shm", "signsum+Elias, cascading, ps-sign, onebit-tree and tar in rotation over shm rings on correlated gradients: the same layers used differently, on a second fabric"},
	{"train_marsit", "marsit-train's default path: forward/backward, stateful Algorithm 1 on the sequential engine and the optimiser; sync is under half of the step"},
	{"fleet_tcp", "four marsit-node processes over real sockets: start, rendezvous, framing, per-round gradient synthesis, mixed one-bit and full-precision rounds, shutdown"},
}

// Every bound is the contract's largest. Ten-run spreads in this
// container reach 12 % and the medians of two sets of ten drift apart by
// up to 10 % when a neighbour is busy for minutes (README,
// Repeatability): a tighter bound would reject changes for that noise.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func fabricDefs(f string) []metricDef {
	p := "transport." + f + "."
	out := lower("us", p+"pingpong_us_64b", p+"pingpong_us_64k", p+"pingpong_us_2m")
	out = append(out, metricDef{Name: p + "stream_mb_s", Unit: "MB/s", Better: "higher"})
	out = append(out, lower("ms", p+"open_ms")...)
	return append(out, lower("B", p+"alloc_b_per_frame")...)
}

var perLayerDefs = func() []metricDef {
	var d []metricDef
	add := func(m ...metricDef) { d = append(d, m...) }
	add(lower("ns",
		"bitvec.pack_ns_per_elem", "bitvec.unpack_ns_per_elem", "bitvec.addsigns_ns_per_elem",
		"bitvec.merge3_ns_per_elem", "bitvec.fill_bernoulli_ns_per_elem", "bitvec.marshal_ns_per_byte",
		"rng.bernoulli_word_ns_per_elem", "rng.float64_ns", "rng.normvec_ns_per_elem",
		"core.merge_signs_ns_per_elem.iid", "core.merge_signs_ns_per_elem.corr")...)
	add(lower("ms", "core.sync_onebit_ms", "core.sync_fullprec_ms")...)
	add(lower("ns", "compress.elias_enc_ns_per_int", "compress.elias_dec_ns_per_int")...)
	add(lower("bits", "compress.elias_bits_per_int")...)
	add(lower("ns", "compress.sign_ns_per_elem", "collective.ssdm_signs_ns_per_elem")...)
	add(lower("ms", "collective.seq_marsit_ms", "collective.seq_rar_ms")...)
	add(metricDef{Name: "collective.match_rate", Unit: "share", Better: "higher"})
	for _, m := range mixMembers {
		add(lower("ms", "runtime."+m.coll+"_ms")...)
	}
	add(lower("MB", "runtime.alloc_mb_per_round")...)
	add(lower("count", "runtime.allocs_per_round", "runtime.gc_per_100_rounds")...)
	add(lower("ms", "runtime.round_ms_p95", "runtime.engine_open_ms")...)
	add(metricDef{Name: "runtime.par_over_seq", Unit: "x", Better: "lower"})
	for _, f := range ladderFabrics {
		add(fabricDefs(f)...)
	}
	add(lower("us", "transport.jobmux.pingpong_us_64k", "transport.faultwrap.pingpong_us_64k")...)
	add(lower("count", "transport.frames_per_round")...)
	add(lower("MB", "transport.payload_mb_per_round")...)
	add(metricDef{Name: "transport.pool_hit_ratio", Unit: "share", Better: "higher"})
	add(metricDef{Name: "transport.tcp.frames_per_writev", Unit: "count", Better: "higher"})
	add(lower("ms", "nn.fwd_bwd_ms_per_batch")...)
	add(lower("us", "optim.step_us", "data.batch_us")...)
	add(lower("ms", "train.step_ms_seq", "train.step_ms_par", "train.step_ms_psgd")...)
	add(lower("share", "train.sync_share")...)
	add(lower("nats", "train.final_loss")...)
	add(metricDef{Name: "train.match_rate", Unit: "share", Better: "higher"})
	add(lower("ms", "node.rendezvous_ms", "node.check_ms_per_round",
		"node.fleet_round_ms.tcp", "node.fleet_round_ms.shm")...)
	add(lower("ms", "obs.compress_ms_per_round", "obs.transmit_ms_per_round")...)
	add(lower("x", "calib.compress_ratio", "calib.transmit_ratio")...)
	add(lower("%", "obs.trace_overhead_pct")...)
	add(lower("count", "obs.trace_events_dropped")...)
	add(lower("MB", "netsim.wire_mb_per_round")...)
	add(lower("sim_ms", "netsim.sim_ms_per_round")...)
	return d
}()

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// sample is one measured metric: its value and how many observations
// stand behind it.
type sample struct {
	value float64
	n     int
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           map[string]sample
	notes             []string // derived, human-only lines
}

func newResult() *result { return &result{metrics: map[string]sample{}} }

func (r *result) set(name string, value float64, n int) { r.metrics[name] = sample{value, n} }

// finalLine renders the contract's last stdout line: exactly the
// declared metrics of the selected kind, each with its unit. A run that
// failed prints what it has.
func (r *result) finalLine(defs []metricDef, correct bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		s, ok := r.metrics[d.Name]
		switch {
		case ok && !math.IsNaN(s.value) && !math.IsInf(s.value, 0):
			metrics[d.Name] = mv{s.value, d.Unit}
		case correct:
			return "", fmt.Errorf("metric %s was not measured (%v)", d.Name, s.value)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	return string(out), err
}
