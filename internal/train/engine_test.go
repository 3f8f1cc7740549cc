package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	gort "runtime"
	"testing"
)

// seriesHash digests a run's full metric series — every Point's loss,
// simulated time, wire megabytes and matching rate, bit for bit, plus
// the final accuracy — into one comparable token.
func seriesHash(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, p := range res.Points {
		put(float64(p.Round))
		put(p.Loss)
		put(p.SimTime)
		put(p.MB)
		put(p.MatchRate)
	}
	put(res.FinalAcc)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestEngineEquivalence trains every method the trainer supports on
// both execution engines — the compressed sign-sum transports in all
// their ring/torus/PS forms, cascading SSDM and the PS hub — and
// asserts the recorded metric series is identical point for point —
// loss, simulated time, wire megabytes and matching rate — so the
// parallel engine changes wall-clock behaviour only. The golden column
// pins the numbers themselves: it is the seriesHash of the sequential
// run recorded before the sign-vote family and Marsit's parallel form
// moved onto registry descriptors, and both engines must still
// reproduce it.
func TestEngineEquivalence(t *testing.T) {
	cases := []struct {
		method Method
		topo   Topo
		elias  bool
		golden string
	}{
		{method: MethodPSGD, topo: TopoRing, golden: "6ee0043c9261efef"},
		{method: MethodPSGD, topo: TopoTorus, golden: "e1d43f48200c59d8"},
		{method: MethodPSGD, topo: TopoPS, golden: "26be245e5da41e21"},
		{method: MethodMarsit, topo: TopoRing, golden: "eb072f4bc8e62df9"},
		{method: MethodMarsit, topo: TopoTorus, golden: "b239e7685e5bfec2"},
		{method: MethodSignSGD, topo: TopoRing, golden: "5929256651f4627c"},
		{method: MethodSignSGD, topo: TopoTorus, golden: "c7a24ef79feb40d8"},
		{method: MethodSignSGD, topo: TopoPS, golden: "3dbf6bdc09ef20bd"},
		{method: MethodEFSignSGD, topo: TopoRing, golden: "166c2d817e6fcfb8"},
		{method: MethodEFSignSGD, topo: TopoTorus, golden: "dd9cdb65f60702fc"},
		{method: MethodEFSignSGD, topo: TopoPS, golden: "82ccadce1cf53a6b"},
		{method: MethodSSDM, topo: TopoRing, golden: "cb4d146002741cd3"},
		{method: MethodSSDM, topo: TopoRing, elias: true, golden: "5810482312fbc127"},
		{method: MethodSSDM, topo: TopoTorus, golden: "bdff5c36d773e713"},
		{method: MethodSSDM, topo: TopoPS, golden: "1afd0df63fd6cc25"},
		{method: MethodCascading, topo: TopoRing, golden: "826b9d6f1872f280"},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s_%s", tc.method, tc.topo)
		if tc.elias {
			name += "_elias"
		}
		t.Run(name, func(t *testing.T) {
			cfg := quickCfg(tc.method, tc.topo)
			cfg.Rounds = 12
			cfg.K = 5 // Marsit: mix full-precision and one-bit rounds
			cfg.UseElias = tc.elias

			seqCfg, parCfg := cfg, cfg
			seqCfg.Engine = EngineSeq
			parCfg.Engine = EnginePar
			seqRes, err := Run(seqCfg)
			if err != nil {
				t.Fatalf("seq: %v", err)
			}
			parRes, err := Run(parCfg)
			if err != nil {
				t.Fatalf("par: %v", err)
			}
			if len(seqRes.Points) != len(parRes.Points) {
				t.Fatalf("point counts: seq %d, par %d", len(seqRes.Points), len(parRes.Points))
			}
			for i := range seqRes.Points {
				s, p := seqRes.Points[i], parRes.Points[i]
				if s.Loss != p.Loss || s.MatchRate != p.MatchRate || s.MB != p.MB {
					t.Fatalf("round %d: seq %+v, par %+v", i, s, p)
				}
				if diff := s.SimTime - p.SimTime; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("round %d sim time: seq %v, par %v", i, s.SimTime, p.SimTime)
				}
			}
			if seqRes.FinalAcc != parRes.FinalAcc {
				t.Fatalf("final acc: seq %v, par %v", seqRes.FinalAcc, parRes.FinalAcc)
			}
			if gort.GOARCH != "amd64" {
				return // the hashes pin float bits; other targets fuse multiply-adds
			}
			if got := seriesHash(seqRes); got != tc.golden {
				t.Errorf("seq series hash %s, recorded %q", got, tc.golden)
			}
			if got := seriesHash(parRes); got != tc.golden {
				t.Errorf("par series hash %s, recorded %q", got, tc.golden)
			}
		})
	}
}

// TestEngineEquivalenceTCP re-runs the engine equivalence with the
// parallel engine on every cross-process fabric train.Run accepts — TCP,
// shared memory and the hybrid split: metric series must match the
// sequential engine point for point even when every collective hop
// crosses a real socket or an mmap'd ring. ssdm covers the compressed
// sign-sum ring over the wire; the PS case covers the hub actor over
// the wire.
func TestEngineEquivalenceTCP(t *testing.T) {
	cases := []struct {
		method Method
		topo   Topo
	}{
		{MethodPSGD, TopoRing},
		{MethodMarsit, TopoRing},
		{MethodSSDM, TopoRing},
		{MethodSSDM, TopoPS},
	}
	for _, fabric := range []Transport{TransportTCP, TransportSHM, TransportHybrid} {
		t.Run(string(fabric), func(t *testing.T) {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s_%s", tc.method, tc.topo), func(t *testing.T) {
					cfg := quickCfg(tc.method, tc.topo)
					cfg.Rounds = 6
					cfg.K = 3

					seqCfg, parCfg := cfg, cfg
					seqCfg.Engine = EngineSeq
					parCfg.Engine = EnginePar
					parCfg.Transport = fabric
					seqRes, err := Run(seqCfg)
					if err != nil {
						t.Fatalf("seq: %v", err)
					}
					parRes, err := Run(parCfg)
					if err != nil {
						t.Fatalf("%s: %v", fabric, err)
					}
					if len(seqRes.Points) != len(parRes.Points) {
						t.Fatalf("point counts: seq %d, %s %d", len(seqRes.Points), fabric, len(parRes.Points))
					}
					for i := range seqRes.Points {
						s, p := seqRes.Points[i], parRes.Points[i]
						if s.Loss != p.Loss || s.MatchRate != p.MatchRate || s.MB != p.MB {
							t.Fatalf("round %d: seq %+v, %s %+v", i, s, fabric, p)
						}
						if diff := s.SimTime - p.SimTime; diff > 1e-9 || diff < -1e-9 {
							t.Fatalf("round %d sim time: seq %v, %s %v", i, s.SimTime, fabric, p.SimTime)
						}
					}
					if seqRes.FinalAcc != parRes.FinalAcc {
						t.Fatalf("final acc: seq %v, %s %v", seqRes.FinalAcc, fabric, parRes.FinalAcc)
					}
				})
			}
		})
	}
}

// TestUnknownTransportRejected checks transport validation at the train
// layer.
func TestUnknownTransportRejected(t *testing.T) {
	cfg := quickCfg(MethodPSGD, TopoRing)
	cfg.Transport = "carrier-pigeon"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus transport accepted")
	}
	old := DefaultTransport
	defer func() { DefaultTransport = old }()
	DefaultTransport = "bogus"
	cfg.Transport = ""
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus DefaultTransport accepted")
	}
}

// TestEngineValidation checks every method accepts EnginePar and that
// bogus engine names are rejected.
func TestEngineValidation(t *testing.T) {
	cfg := quickCfg(MethodSSDM, TopoRing)
	cfg.Rounds = 4
	cfg.Engine = EnginePar
	if _, err := Run(cfg); err != nil {
		t.Fatalf("ssdm under par engine: %v", err)
	}
	cfg.Engine = "warp"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

// TestDefaultEngineApplies checks the package default is honored when
// Config.Engine is empty.
func TestDefaultEngineApplies(t *testing.T) {
	old := DefaultEngine
	defer func() { DefaultEngine = old }()
	DefaultEngine = EnginePar
	cfg := quickCfg(MethodMarsit, TopoRing)
	cfg.Rounds = 3
	if _, err := Run(cfg); err != nil {
		t.Fatalf("run under default par engine: %v", err)
	}
	DefaultEngine = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus DefaultEngine accepted")
	}
}
