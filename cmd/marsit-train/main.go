// Command marsit-train runs one configurable distributed training job
// on the simulated cluster and prints the metric series.
//
// Usage:
//
//	marsit-train -method marsit -topo ring -workers 8 -rounds 200
//	marsit-train -method psgd -dataset cifar -model resnet
//	marsit-train -method marsit -k 100 -global-lr 0.004
//	marsit-train -method psgd -engine par -transport tcp
//	marsit-train -method ps-sign -workers 8    # any registered collective
//
// -method accepts the paper's six methods (resolved to their collectives
// through the collective registry) or any registered collective name
// directly — the raw collective then synchronizes the cloned gradients
// each round, exactly how psgd and cascading run. -engine selects the
// execution engine (seq: single-threaded virtual time; par: one
// goroutine per worker) and -transport the parallel engine's fabric
// (loopback | tcp | shm | hybrid); metric series are bit-identical
// across all combinations.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"marsit/internal/data"
	"marsit/internal/nn"
	"marsit/internal/report"
	"marsit/internal/rng"
	"marsit/internal/train"
)

func main() {
	var (
		method    = flag.String("method", "marsit", train.MethodHelp())
		topo      = flag.String("topo", "ring", "ring | torus | ps")
		workers   = flag.Int("workers", 8, "cluster size M")
		rounds    = flag.Int("rounds", 100, "synchronizations T")
		batch     = flag.Int("batch", 16, "per-worker batch size")
		localLR   = flag.Float64("lr", 0.3, "local learning rate η_l")
		globalLR  = flag.Float64("global-lr", 0.004, "Marsit global step η_s")
		k         = flag.Int("k", 0, "Marsit full-precision period (0 = never)")
		optimizer = flag.String("optimizer", "sgd", "sgd | momentum | adam")
		dataset   = flag.String("dataset", "mnist", "mnist | cifar | imagenet | imdb")
		model     = flag.String("model", "mlp", "logreg | mlp | alexnet | resnet | bow")
		samples   = flag.Int("samples", 2000, "synthetic corpus size")
		seed      = flag.Uint64("seed", 1, "root seed")
		evalEvery = flag.Int("eval-every", 10, "evaluation interval in rounds")
		elias     = flag.Bool("elias", false, "Elias-code sign-sum transports")
		engine    = flag.String("engine", "seq", "execution engine: seq (single-threaded virtual time) | par (one goroutine per worker)")
		transport = flag.String("transport", "loopback", "parallel engine fabric: loopback (in-process channels) | tcp (real sockets) | shm (mmap'd rings) | hybrid (shm intra-host + tcp inter-host)")
	)
	flag.Parse()

	ds, inDim, classes := buildDataset(*dataset, *samples, *seed)
	trainSet, testSet := ds.Split(ds.Len() * 4 / 5)
	builder, err := buildModel(*model, inDim, classes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marsit-train: %v\n", err)
		os.Exit(2)
	}

	// Engine and transport strings are validated by train.Run, the single
	// home of the accepted value sets.
	cfg := train.Config{
		Method: train.Method(*method), Topo: train.Topo(*topo),
		Engine: train.Engine(*engine), Transport: train.Transport(*transport),
		Workers: *workers, Rounds: *rounds, Batch: *batch,
		LocalLR: *localLR, GlobalLR: *globalLR, K: *k,
		Optimizer: *optimizer, UseElias: *elias,
		EvalEvery: *evalEvery, EvalSamples: 500, Seed: *seed,
		Model: builder, Train: trainSet, Test: testSet,
	}
	res, err := train.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marsit-train: %v\n", err)
		os.Exit(1)
	}

	tb := report.NewTable(
		fmt.Sprintf("%s on %s/%s — M=%d, %d rounds, %d params",
			*method, *dataset, *model, *workers, *rounds, res.Params),
		"Round", "Epoch", "Loss", "TestAcc", "SimTime(s)", "MB", "MatchRate")
	for _, p := range res.Points {
		acc := "—"
		if !math.IsNaN(p.TestAcc) {
			acc = fmt.Sprintf("%.4f", p.TestAcc)
		}
		tb.AddRow(fmt.Sprint(p.Round), report.FormatFloat(p.Epoch),
			report.FormatFloat(p.Loss), acc,
			report.FormatFloat(p.SimTime), report.FormatFloat(p.MB),
			report.FormatFloat(p.MatchRate))
	}
	fmt.Print(tb.Render())
	fmt.Println()
	if res.Diverged {
		fmt.Printf("DIVERGED at round %d\n", res.DivergedAt)
	}
	fmt.Printf("final acc %.4f | best %.4f | simulated %.2fs | %.2f MB | compute %.2fs compress %.2fs transmit %.2fs\n",
		res.FinalAcc, res.BestAcc, res.TotalTime, res.TotalMB,
		res.Breakdown.Compute(), res.Breakdown.Compress(), res.Breakdown.Transmit())
}

func buildDataset(name string, samples int, seed uint64) (ds *data.Dataset, inDim, classes int) {
	switch name {
	case "mnist":
		return data.SyntheticMNIST(samples, seed), 64, 10
	case "cifar":
		return data.SyntheticCIFAR(samples, seed), 192, 10
	case "imagenet":
		return data.SyntheticImageNet(samples, seed), 256, 20
	case "imdb":
		return data.SyntheticIMDB(samples, 256, seed), 256, 2
	default:
		fmt.Fprintf(os.Stderr, "marsit-train: unknown dataset %q\n", name)
		os.Exit(2)
		return nil, 0, 0
	}
}

func buildModel(name string, inDim, classes int) (func(r *rng.PCG) *nn.Network, error) {
	switch name {
	case "logreg":
		return func(r *rng.PCG) *nn.Network { return nn.NewLogReg(r, inDim, classes) }, nil
	case "mlp":
		return func(r *rng.PCG) *nn.Network { return nn.NewMLP(r, inDim, []int{64}, classes) }, nil
	case "alexnet":
		// Interprets the input as a single-channel square image when
		// possible; falls back to an MLP otherwise.
		side := 8
		for side*side < inDim {
			side++
		}
		if side*side != inDim {
			return func(r *rng.PCG) *nn.Network { return nn.NewMLP(r, inDim, []int{64, 32}, classes) }, nil
		}
		return func(r *rng.PCG) *nn.Network { return nn.NewMiniAlexNet(r, 1, side, side, classes) }, nil
	case "resnet":
		return func(r *rng.PCG) *nn.Network { return nn.NewMiniResNet(r, inDim, 48, 3, classes) }, nil
	case "bow":
		return func(r *rng.PCG) *nn.Network { return nn.NewBoWText(r, inDim, 32, classes) }, nil
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
}
