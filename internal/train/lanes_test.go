package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	gort "runtime"
	"testing"
	"time"

	"marsit/internal/bitvec"
	"marsit/internal/collective/registry"
	"marsit/internal/data"
	"marsit/internal/nn"
	"marsit/internal/optim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// pointsEqual reports whether two metric series are equal bit for bit in
// every field, NaN test accuracies included.
func pointsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		p, q := a[i], b[i]
		if p.Round != q.Round || !same(p.Epoch, q.Epoch) || !same(p.Loss, q.Loss) ||
			!same(p.TestAcc, q.TestAcc) || !same(p.SimTime, q.SimTime) ||
			!same(p.MB, q.MB) || !same(p.MatchRate, q.MatchRate) {
			return false
		}
	}
	return true
}

// paramsHash digests a parameter vector bit for bit.
func paramsHash(v tensor.Vec) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// awaitGoroutines waits until no more than want goroutines are left;
// a lane or a rank goroutine may still be returning after its join.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for gort.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", gort.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunIndependentOfGOMAXPROCS runs the trainer at GOMAXPROCS 1, 2, 3
// and 8 — one lane, lanes sharing workers unevenly, and one lane per
// worker — on both engines, and requires the same metric series and the
// same final parameters bit for bit everywhere, with every goroutine a
// run started gone after it. It forces at least two lanes, so a race
// detector run sees concurrent local steps, one-bit syncs and range
// tails on any machine. The cases cover one-bit rounds only (K = 0) and
// mixed with full-precision ones (K = 2), the torus's two ring phases,
// and the range-split steps of every optimizer.
func TestRunIndependentOfGOMAXPROCS(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(0))
	resnet := func(r *rng.PCG) *nn.Network { return nn.NewMiniResNet(r, 64, 16, 2, 10) }
	cases := []struct {
		name      string
		method    Method
		topo      Topo
		k         int
		optimizer string
		model     func(r *rng.PCG) *nn.Network
	}{
		{"psgd", MethodPSGD, TopoRing, 2, "sgd", nil},
		{"marsit", MethodMarsit, TopoRing, 2, "sgd", nil},
		{"marsit_K0", MethodMarsit, TopoRing, 0, "sgd", nil},
		{"marsit_torus", MethodMarsit, TopoTorus, 2, "sgd", nil},
		{"marsit_momentum", MethodMarsit, TopoRing, 2, "momentum", nil},
		{"psgd_adam", MethodPSGD, TopoRing, 2, "adam", nil},
		{"ssdm", MethodSSDM, TopoRing, 2, "sgd", nil},
		{"marsit_resnet", MethodMarsit, TopoRing, 2, "sgd", resnet},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantPoints []Point
			var wantParams string
			for _, engine := range []Engine{EngineSeq, EnginePar} {
				for _, procs := range []int{1, 2, 3, 8} {
					cfg := quickCfg(tc.method, tc.topo)
					cfg.Rounds = 6
					cfg.K = tc.k
					cfg.Optimizer = tc.optimizer
					cfg.Engine = engine
					if tc.model != nil {
						cfg.Model = tc.model
					}
					var model *nn.Network
					build := cfg.Model
					cfg.Model = func(r *rng.PCG) *nn.Network { model = build(r); return model }

					gort.GOMAXPROCS(procs)
					before := gort.NumGoroutine()
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s, GOMAXPROCS %d: %v", engine, procs, err)
					}
					awaitGoroutines(t, before)
					params := paramsHash(model.Params())
					if wantPoints == nil {
						wantPoints, wantParams = res.Points, params
						continue
					}
					if !pointsEqual(res.Points, wantPoints) {
						t.Fatalf("%s, GOMAXPROCS %d: series differs from seq at GOMAXPROCS 1", engine, procs)
					}
					if params != wantParams {
						t.Fatalf("%s, GOMAXPROCS %d: params hash %s, want %s", engine, procs, params, wantParams)
					}
				}
			}
		})
	}
}

// TestTrueMeanPassMatchesSerial pins the lanes' range-split pass to the
// serial one — Zero, localScale for each worker in order, Scale by 1/M —
// bit for bit: with D not a multiple of the lane count, with more lanes
// than elements (empty ranges), at both learning rates the trainer uses,
// and on −0, ±Inf and NaN inputs.
func TestTrueMeanPassMatchesSerial(t *testing.T) {
	const workers, batch = 3, 3
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0, 5e-324}
	same := func(a, b tensor.Vec) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, d := range []int{1, 2, 7, 1001} {
		for _, lanes := range []int{1, 2, 3, 4, 8} {
			for _, lr := range []float64{0.3, 1} {
				r := rng.New(uint64(d*10 + lanes))
				grads := make([]tensor.Vec, workers)
				for w := range grads {
					grads[w] = r.NormVec(make(tensor.Vec, d), 0, 1)
					for i := w; i < d; i += 5 {
						grads[w][i] = special[(i+w)%len(special)]
					}
				}
				wantGrads := make([]tensor.Vec, workers)
				for w := range grads {
					wantGrads[w] = tensor.Clone(grads[w])
				}
				wantMean := tensor.New(d)
				for _, g := range wantGrads {
					localScale(g, wantMean, 1/float64(batch), lr)
				}
				tensor.Scale(wantMean, 1/float64(workers))

				mean := r.NormVec(make(tensor.Vec, d), 0, 1) // stale content the pass must clear
				trueMeanPass(lanes, grads, mean, 1/float64(batch), lr)
				if !same(mean, wantMean) {
					t.Fatalf("D %d, %d lanes, lr %v: true mean differs from the serial pass", d, lanes, lr)
				}
				for w := range grads {
					if !same(grads[w], wantGrads[w]) {
						t.Fatalf("D %d, %d lanes, lr %v: worker %d's scaled gradient differs", d, lanes, lr, w)
					}
				}
			}
		}
	}
}

// TestTailMatchesSerial pins the round's range-split tail to the serial
// one it replaced — the update unpacked whole, tensor.MatchRate, the
// optimizer's Step and allFinite over the whole vectors — bit for bit, for a one-bit update
// and a dense one, with every optimizer: with D not a multiple of 64,
// with fewer words than lanes, and with a non-finite parameter showing up
// in one range only.
func TestTailMatchesSerial(t *testing.T) {
	for _, d := range []int{1, 63, 130, 1001} {
		for _, lanes := range []int{1, 2, 3, 4, 8} {
			for _, name := range []string{"sgd", "momentum", "adam"} {
				for _, oneBit := range []bool{false, true} {
					r := rng.New(uint64(d*100 + lanes))
					trueMean := r.NormVec(make(tensor.Vec, d), 0, 1)
					trueMean[d/2] = math.Copysign(0, -1)
					var update registry.Update
					if oneBit {
						update = registry.Update{Signs: bitvec.FromSigns(r.NormVec(make(tensor.Vec, d), 0, 1)), Scale: 0.25}
					} else {
						update = registry.Update{Vec: r.NormVec(make(tensor.Vec, d), 0, 1)}
					}
					params := r.NormVec(make(tensor.Vec, d), 0, 1)
					wantParams := tensor.Clone(params)
					opt, _ := optim.ByName(name, 1, d)
					wantOpt, _ := optim.ByName(name, 1, d)
					tl := newTail(lanes, d)
					for round := 0; round < 2; round++ {
						dense := update.Dense()
						wantMatch := tensor.MatchRate(dense, trueMean)
						wantOpt.Step(wantParams, dense)
						wantFinite := allFinite(wantParams)
						match, finite := tl.run(update, trueMean, tensor.New(d), opt, params)
						if math.Float64bits(match) != math.Float64bits(wantMatch) || finite != wantFinite {
							t.Fatalf("D %d, %d lanes, %s, one-bit %v, round %d: match %v finite %v, serial %v %v",
								d, lanes, name, oneBit, round, match, finite, wantMatch, wantFinite)
						}
						if paramsHash(params) != paramsHash(wantParams) {
							t.Fatalf("D %d, %d lanes, %s, one-bit %v, round %d: parameters differ from the serial step",
								d, lanes, name, oneBit, round)
						}
						// The second round starts from one infinite
						// parameter, in the last range.
						params[d-1], wantParams[d-1] = math.Inf(1), math.Inf(1)
					}
				}
			}
		}
	}
}

// BenchmarkTrainJob times the benchmark's train_marsit job: M = 4
// workers, batch 8, the MLP 192→384→64→10 on synthetic CIFAR, K = 50,
// 120 rounds on the sequential engine. It reports the wall time of a
// round as ms/step, at whatever GOMAXPROCS the benchmark runs with
// (-cpu 1,2 compares one lane with two).
func BenchmarkTrainJob(b *testing.B) {
	const rounds = 120
	trainSet, testSet := data.SyntheticCIFAR(4000, 1).Split(3800)
	cfg := Config{
		Method: MethodMarsit, Topo: TopoRing, Engine: EngineSeq,
		Workers: 4, Rounds: rounds, Batch: 8,
		LocalLR: 0.1, GlobalLR: 0.004, K: 50, Optimizer: "sgd", Seed: 1,
		Model: func(r *rng.PCG) *nn.Network {
			return nn.NewMLP(r, 192, []int{384, 64}, 10)
		},
		Train: trainSet, Test: testSet,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*rounds), "ms/step")
}
