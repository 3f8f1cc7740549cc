package runtime

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"marsit/internal/collective"
	"marsit/internal/compress"
	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// signScaleUnfused is the signSGD compression as it stood before the
// fused pass — a ±1 float vector from tensor.SignVec and the ℓ1/D
// magnitude from tensor.Norm1 — kept verbatim as the oracle.
func signScaleUnfused(g tensor.Vec) ([]float64, float64) {
	signs := make([]float64, len(g))
	tensor.SignVec(signs, g)
	return signs, tensor.Norm1(g) / float64(len(g))
}

// TestVoteScaleMatchesSignVec pins the fused vote-and-ℓ1 pass to the two
// tensor kernels it replaced: the same sign for every element — NaN with
// either sign bit, ±0, ±Inf and ±denormals included, where tensor.Sign's
// `x < 0` and the IEEE sign bit disagree — and a scale equal bit for bit,
// which it can only be if ℓ1 is summed in the same order.
func TestVoteScaleMatchesSignVec(t *testing.T) {
	nan := math.NaN()
	cases := map[string]tensor.Vec{
		"edge": {0, math.Copysign(0, -1), nan, math.Copysign(nan, -1), math.Inf(1), math.Inf(-1),
			5e-324, -5e-324, 1, -1, math.MaxFloat64, -math.MaxFloat64},
		"finite-edge": {0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e300, -1e300, 3, -7},
		"gaussian":    rng.New(41).NormVec(make([]float64, 1000), 0, 1),
		"one":         {-2},
	}
	for name, g := range cases {
		votes := make([]int64, len(g)+3) // pooled scratch may be longer than the gradient
		for i := range votes {
			votes[i] = 99
		}
		scale := voteScale(g, votes)
		signs, wantScale := signScaleUnfused(g)
		if math.Float64bits(scale) != math.Float64bits(wantScale) {
			t.Fatalf("%s: scale %v (%#x), tensor.Norm1/D %v (%#x)", name, scale, math.Float64bits(scale), wantScale, math.Float64bits(wantScale))
		}
		for i, s := range signs {
			if float64(votes[i]) != s {
				t.Fatalf("%s: vote[%d] of %v = %d, tensor.Sign %v", name, i, g[i], votes[i], s)
			}
		}
		for i := len(g); i < len(votes); i++ {
			if votes[i] != 99 {
				t.Fatalf("%s: wrote vote[%d] past the gradient", name, i)
			}
		}
	}
}

// signSumFrame builds a sign-sum chunk by hand: a scale-count header,
// that many scales, then body.
func signSumFrame(nScales uint32, scales []float64, body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, nScales)
	for _, s := range scales {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s))
	}
	return append(out, body...)
}

// FuzzSignSumChunkRobust throws arbitrary bytes at the two sign-sum chunk
// decoders, raw and Elias, with and without an expected scale: a frame
// off the wire may be anything, and the only acceptable outcomes are a
// return or a panic that names the package, the rank and the peer — never
// an index out of range, and never a frame whose scale count differs from
// what the ring will index later.
func FuzzSignSumChunkRobust(f *testing.F) {
	elias, _ := compress.EliasEncodeInts([]int64{1, -1, 3, 0, -2, 4, 1, -3})
	raw := make([]byte, 64)
	for i := range raw {
		raw[i] = byte(i * 37)
	}
	f.Add([]byte{}, uint8(8))
	f.Add([]byte{1, 0}, uint8(8))
	f.Add(signSumFrame(1, []float64{2.5}, elias), uint8(8))
	f.Add(signSumFrame(0, nil, elias), uint8(8))
	f.Add(signSumFrame(1, []float64{2.5}, raw), uint8(8))
	f.Add(signSumFrame(0, nil, raw), uint8(8))
	f.Add(signSumFrame(0xFFFFFFFF, nil, raw), uint8(8))                      // absurd scale count
	f.Add(signSumFrame(2, []float64{1, 2}, raw), uint8(8))                   // one scale too many
	f.Add(signSumFrame(1, nil, []byte{1, 2, 3}), uint8(8))                   // header promises a scale the frame lacks
	f.Add(signSumFrame(1, []float64{2.5}, elias[:len(elias)-1]), uint8(8))   // truncated Elias body
	f.Add(signSumFrame(1, []float64{2.5}, append(elias, 0xff, 0)), uint8(8)) // trailing bytes
	f.Add(signSumFrame(1, []float64{2.5}, raw[:63]), uint8(8))               // raw body a byte short
	f.Add(signSumFrame(0, nil, append(raw, 0)), uint8(8))                    // raw body a byte long
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8) {
		const rank, peer = 2, 1
		n := int(nRaw) % 65
		prefix := fmt.Sprintf("runtime: rank %d: peer %d", rank, peer)
		try := func(name string, decode func(dst []int64, frame []byte)) {
			defer func() {
				if r := recover(); r != nil {
					if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, prefix) {
						t.Fatalf("%s: panic %v, want a message starting %q", name, r, prefix)
					}
				}
			}()
			// The decoders recycle the frame: hand each its own copy.
			decode(make([]int64, n), append([]byte(nil), data...))
		}
		for _, useElias := range []bool{false, true} {
			for wantScales := 0; wantScales <= 1; wantScales++ {
				try(fmt.Sprintf("add elias=%v scales=%d", useElias, wantScales), func(dst []int64, frame []byte) {
					if sc := addSignSumChunk(rank, peer, dst, frame, useElias, wantScales); len(sc) != wantScales {
						t.Fatalf("add elias=%v returned %d scales, want %d", useElias, len(sc), wantScales)
					}
				})
			}
			try(fmt.Sprintf("copy elias=%v", useElias), func(dst []int64, frame []byte) {
				copySignSumChunk(rank, peer, dst, frame, 4, useElias)
			})
		}
	})
}

// mustPanicWith runs f and demands a panic whose message contains every
// one of parts.
func mustPanicWith(t *testing.T, name string, f func(), parts ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		for _, p := range parts {
			if !strings.Contains(msg, p) {
				t.Fatalf("%s: panic %q, want it to contain %q", name, msg, p)
			}
		}
	}()
	f()
}

// TestSignSumEliasTrailingByte pins the length check that makes
// forwarding charge-exact: an Elias body one byte longer than its codes
// occupy is rejected by name on both decode paths, before the frame can
// be forwarded or recycled, while the exact frame decodes.
func TestSignSumEliasTrailingByte(t *testing.T) {
	vals := []int64{1, -1, 3, 0, -2, 4, 1, -3, 2, 2, -4}
	enc, n := compress.EliasEncodeInts(vals)
	if wire := copySignSumChunk(2, 1, make([]int64, len(vals)), signSumFrame(0, nil, enc), 4, true); wire != collective.EliasWireBytes(n) {
		t.Fatalf("exact frame of %d bits charged %d bytes to forward", n, wire)
	}
	long := append(enc[:len(enc):len(enc)], 0)
	mustPanicWith(t, "copy", func() {
		copySignSumChunk(2, 1, make([]int64, len(vals)), signSumFrame(0, nil, long), 4, true)
	}, "rank 2", "peer 1", "sign-sum elias payload", fmt.Sprintf("%d bytes", len(long)))
	mustPanicWith(t, "add", func() {
		addSignSumChunk(2, 1, make([]int64, len(vals)), signSumFrame(1, []float64{0.5}, long), true, 1)
	}, "rank 2", "peer 1", "sign-sum elias payload", fmt.Sprintf("%d bytes", len(long)))
}

// TestSignSumEncodeBound checks the encoder's self-sizing: a chunk within
// the worker bound is charged what the encoder counted and trimmed to
// whole bytes, and sums past the bound panic by name instead of leaving
// the pooled buffer (and its header) behind.
func TestSignSumEncodeBound(t *testing.T) {
	vals := []int64{4, -4, 0, 2, -3, 1, 4, 4, -4}
	data, wire := encodeSignSumChunk(0, vals, []float64{1.5}, 4, true)
	enc, n := compress.EliasEncodeInts(vals)
	if want := signSumFrame(1, []float64{1.5}, enc); string(data) != string(want) {
		t.Fatalf("frame %x, want %x", data, want)
	}
	if wire != collective.EliasWireBytes(n) {
		t.Fatalf("charged %d bytes for %d bits", wire, n)
	}
	mustPanicWith(t, "past the bound", func() {
		encodeSignSumChunk(3, []int64{9, 9, 9, 9, 9, 9, 9, 9}, nil, 4, true)
	}, "rank 3", "sign-sum elias payload", "4-worker bound")
}
