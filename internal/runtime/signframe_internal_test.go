package runtime

import (
	"math"
	"strings"
	"testing"

	"marsit/internal/bitvec"
)

// FuzzSignFrameRobust throws arbitrary bytes at the sign-frame decoders —
// decodeSigns (±1 floats, the PS hub's uplinks), decodeSignScale (a new bit
// vector, the majority hub's votes) and decodeSignScaleInto (into a vector
// kept across hops, the cascading ring's) — expecting d signs. A frame off
// the wire may be anything: the only acceptable outcomes are a return or a
// panic naming the sign-scale payload, never an index out of range. A frame
// that decodes must decode alike in all three, and into a reused vector
// exactly as into a fresh one.
func FuzzSignFrameRobust(f *testing.F) {
	for _, d := range []int{0, 1, 63, 64, 65, 130} {
		bits := bitvec.New(d)
		for i := 0; i < d; i += 3 {
			bits.Set(i, true)
		}
		frame := encodeSignScale(bits, 0.25)
		f.Add(append([]byte(nil), frame...), uint8(d))
		f.Add(append([]byte(nil), frame[:len(frame)-1]...), uint8(d)) // a byte short
		f.Add(append(append([]byte(nil), frame...), 0xff), uint8(d))  // a byte long
		f.Add(append([]byte(nil), frame...), uint8(d+1))              // another length than expected
	}
	f.Add([]byte{}, uint8(8))
	f.Add([]byte{1, 2, 3}, uint8(8))                                                   // shorter than the scale
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(8))                              // a scale and no header
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0xff, 0xff, 0xff, 0xff, 1}, uint8(255)) // 2³² − 1 bits promised
	f.Fuzz(func(t *testing.T, data []byte, dRaw uint8) {
		d := int(dRaw)
		// A frame of d ≤ 255 signs is at most 44 bytes and the decoders
		// ignore what follows it: longer inputs add nothing but time.
		data = data[:min(len(data), 64)]
		const prefix = "runtime: sign-scale payload"
		try := func(name string, decode func(frame []byte)) (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if msg, isStr := r.(string); !isStr || !strings.HasPrefix(msg, prefix) {
						t.Fatalf("%s: panic %v, want a message starting %q", name, r, prefix)
					}
					ok = false
				}
			}()
			// The decoders recycle the frame: hand each its own copy.
			decode(append([]byte(nil), data...))
			return true
		}

		signs := make([]float64, d)
		var fresh *bitvec.Vec
		reused := bitvec.New(200)
		reused.Set(199, true)
		var scales [3]float64
		okSigns := try("decodeSigns", func(frame []byte) { scales[0] = decodeSigns(frame, signs) })
		okFresh := try("decodeSignScale", func(frame []byte) { fresh, scales[1] = decodeSignScale(frame, d) })
		okInto := try("decodeSignScaleInto", func(frame []byte) { scales[2] = decodeSignScaleInto(frame, reused, d) })
		if okSigns != okFresh || okFresh != okInto {
			t.Fatalf("d=%d: decoders disagree on the frame: decodeSigns %v, decodeSignScale %v, decodeSignScaleInto %v", d, okSigns, okFresh, okInto)
		}
		if !okInto {
			return
		}
		if math.Float64bits(scales[0]) != math.Float64bits(scales[1]) || math.Float64bits(scales[1]) != math.Float64bits(scales[2]) {
			t.Fatalf("d=%d: scales %v", d, scales)
		}
		if fresh.Len() != d || !reused.Equal(fresh) {
			t.Fatalf("d=%d: decoded into a reused vector %v, into a fresh one %v", d, reused, fresh)
		}
		for i, s := range signs {
			if fresh.Get(i) != (s == 1) || (s != 1 && s != -1) {
				t.Fatalf("d=%d: sign %d decodes to %v as a float, %v as a bit", d, i, s, fresh.Get(i))
			}
		}
	})
}
