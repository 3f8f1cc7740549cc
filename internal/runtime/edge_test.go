package runtime_test

import (
	"fmt"
	"math"
	"testing"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/runtime"
	"marsit/internal/runtime/equivtest"
	"marsit/internal/tensor"
)

// edgeGrads returns the workers' gradients of dimension d for one of the
// IEEE edge patterns the sign collectives must carry bit for bit: NaN of
// both signs (on one worker) and ±Inf among Gaussians (an infinite
// element makes SSDM's norm infinite and its keep probability NaN; a NaN
// makes the norm NaN), one-hot vectors (keep probability 1, no draw) and
// all-zero vectors of both zero signs (norm 0). The equivalence matrix
// feeds Gaussians only.
func edgeGrads(pattern string, workers, d int) []tensor.Vec {
	grads := equivtest.RandVecs(uint64(len(pattern)*workers+d), workers, d)
	negZero := math.Copysign(0, -1)
	for w, g := range grads {
		switch pattern {
		case "nan":
			// On one worker only: a sum of two NaNs keeps either operand's
			// payload, as the compiler orders the operands, so only a NaN
			// meeting non-NaNs has one right answer to compare bits with.
			for i := 0; w == 0 && i < d; i += 7 {
				g[i] = math.Copysign(math.NaN(), float64(i%2*2-1))
			}
		case "inf":
			for i := w; i < d; i += 11 {
				g[i] = math.Inf(i%2*2 - 1)
			}
		case "one-hot":
			clear(g)
			g[(w*37)%d] = float64(w - 1)
			if w == 1 {
				g[(w*37)%d] = negZero
			}
		case "zeros":
			for i := range g {
				g[i] = 0
				if (i+w)%3 == 0 {
					g[i] = negZero
				}
			}
		default:
			panic("edgeGrads: unknown pattern " + pattern)
		}
	}
	return grads
}

// TestSignLegsOnEdgeGradients runs the per-rank legs of cascading SSDM
// and of the signsum majority (raw and Elias-coded) against their
// sequential legs on edgeGrads over two rounds so a rank's kept state
// is reused: outputs compared with Float64bits (NaN payloads and zero
// signs included), wire bytes and α–β clocks equal.
func TestSignLegsOnEdgeGradients(t *testing.T) {
	const rounds = 2
	for _, tc := range []struct {
		name  string
		elias bool
	}{{"cascading", false}, {"signsum", false}, {"signsum", true}} {
		desc, err := registry.Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pattern := range []string{"nan", "inf", "one-hot", "zeros"} {
			for _, sh := range []struct{ workers, d int }{{3, 131}, {4, 200}} {
				name := fmt.Sprintf("%s/elias=%v/%s/M=%d", tc.name, tc.elias, pattern, sh.workers)
				t.Run(name, func(t *testing.T) {
					opts := &registry.Opts{Workers: sh.workers, Dim: sh.d, Seed: 5, Elias: tc.elias}
					seq, err := desc.Seq(opts)
					if err != nil {
						t.Fatal(err)
					}
					eng := runtime.New(sh.workers)
					defer eng.Close()
					cl, err := eng.Open(desc, opts)
					if err != nil {
						t.Fatal(err)
					}
					seqC := netsim.NewCluster(sh.workers, netsim.DefaultCostModel())
					parC := netsim.NewCluster(sh.workers, netsim.DefaultCostModel())
					for r := 0; r < rounds; r++ {
						want := seq(seqC, edgeGrads(pattern, sh.workers, sh.d))
						got := cl.Run(parC, edgeGrads(pattern, sh.workers, sh.d))
						equivtest.RequireSameVecs(t, want, got)
					}
					equivtest.RequireSameClusters(t, seqC, parC)
				})
			}
		}
	}
}
