package main

import (
	"fmt"
	"time"

	"marsit/internal/data"
	"marsit/internal/nn"
	"marsit/internal/rng"
	"marsit/internal/train"
)

// The train_marsit job: marsit-train's defaults (sequential engine,
// ring, sgd, η_s 0.004) on a model big enough that the sync is a real
// share of the step. The local rate is 0.1, not the CLI's 0.3: at 0.3
// every full-precision round (it applies the accumulated compensation
// at once) throws the loss back up and the job never settles.
const (
	trainSamples = 4000
	trainInDim   = 192 // SyntheticCIFAR's feature width
	trainClasses = 10
	trainBatch   = 8
	trainK       = 50
	trainRounds  = 120
	// trainParams is D of the model below.
	trainParams = (trainInDim+1)*384 + (384+1)*64 + (64+1)*trainClasses
	// lossTail is how many closing rounds final_loss averages;
	// lossCeiling is what it must stay under for the job to count as
	// learning (ten classes start at ln 10 ≈ 2.3).
	lossTail    = 20
	lossCeiling = 1.0
)

func trainModel(r *rng.PCG) *nn.Network {
	return nn.NewMLP(r, trainInDim, []int{384, 64}, trainClasses)
}

// trainData is the set-up a user pays before the first step: the corpus
// and its train/test split.
func trainData(seed uint64, quick bool) (trainSet, testSet *data.Dataset) {
	n := trainSamples
	if quick {
		n = 200
	}
	ds := data.SyntheticCIFAR(n, seed)
	return ds.Split(n * 19 / 20)
}

func trainConfig(seed uint64, method train.Method, engine train.Engine, rounds int, trainSet, testSet *data.Dataset) train.Config {
	return train.Config{
		Method: method, Topo: train.TopoRing, Engine: engine, Transport: train.TransportLoopback,
		Workers: workers, Rounds: rounds, Batch: trainBatch,
		LocalLR: 0.1, GlobalLR: 0.004, K: trainK, Optimizer: "sgd",
		Seed: seed, Model: trainModel, Train: trainSet, Test: testSet,
	}
}

// trainOutcome is what one train.Run repetition yields beyond its time.
type trainOutcome struct {
	finalLoss, matchRate float64
	wireMB, simMs        float64 // per round
}

// trainOnce runs the job once and checks it: no error, no divergence,
// every round recorded.
func trainOnce(cfg train.Config) (time.Duration, trainOutcome, error) {
	t0 := time.Now()
	var r *train.Result
	var err error
	if perr := guard(func() { r, err = train.Run(cfg) }); perr != nil {
		err = perr
	}
	d := time.Since(t0)
	if err != nil {
		return d, trainOutcome{}, err
	}
	if r.Diverged || len(r.Points) != cfg.Rounds {
		return d, trainOutcome{}, fmt.Errorf("diverged at round %d (%d of %d rounds recorded)", r.DivergedAt, len(r.Points), cfg.Rounds)
	}
	var out trainOutcome
	tail := min(lossTail, len(r.Points))
	for _, p := range r.Points[len(r.Points)-tail:] {
		out.finalLoss += p.Loss / float64(tail)
	}
	for _, p := range r.Points {
		out.matchRate += p.MatchRate / float64(len(r.Points))
	}
	out.wireMB = r.TotalMB / float64(cfg.Rounds)
	out.simMs = r.TotalTime * 1e3 / float64(cfg.Rounds)
	return d, out, nil
}

// runTrain is the untraced train_marsit run: one unit is a whole
// train.Run, reported per round.
func runTrain(seed uint64, seconds float64, quick bool, res *result) error {
	var trainSet, testSet *data.Dataset
	var setups []float64
	for i := 0; i < 2*setupReps+1; i++ {
		t0 := time.Now()
		trainSet, testSet = trainData(seed, quick)
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), len(setups))

	rounds := trainRounds
	if quick {
		rounds = 3
	}
	cfg := trainConfig(seed, train.MethodMarsit, train.EngineSeq, rounds, trainSet, testSet)
	var first *trainOutcome
	rep := func() (time.Duration, error) {
		res.attempted += rounds
		d, out, err := trainOnce(cfg)
		switch {
		case err != nil:
		case !quick && out.finalLoss >= lossCeiling:
			err = fmt.Errorf("final loss %.4f is not under %.1f: the job does not learn", out.finalLoss, lossCeiling)
		case first == nil:
			first = &out
		case out != *first:
			err = fmt.Errorf("repetition gave %+v, the first gave %+v: the run is not a function of its seed", out, *first)
		}
		if err != nil {
			res.failed += rounds
			return d, err
		}
		return d / time.Duration(rounds), nil
	}
	// Warm-up: one repetition, which is also the verification.
	if _, err := rep(); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	// Every repetition is its own block: its per-round time already
	// averages over all its rounds.
	w := &window{}
	if err := w.fill(seconds, selfUsage, rounds, rep); err != nil {
		return err
	}
	w.endToEnd(res)
	res.set("peak_rss_mb", peakRSSMB(), 1)
	res.notes = append(res.notes, fmt.Sprintf(
		"derived: final_loss %.6f nats, match_rate %.6f, wire %.6f MB/round, simulated %.6f ms/round",
		first.finalLoss, first.matchRate, first.wireMB, first.simMs))
	return nil
}
