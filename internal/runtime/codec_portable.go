//go:build !amd64 && !arm64

package runtime

import (
	"encoding/binary"
	"math"

	"marsit/internal/transport"
)

// Portable codecs: explicit little-endian element round trips, correct
// on any byte order or alignment. Little-endian platforms with
// unaligned loads get the memmove-speed variants in codec_fast.go
// instead; the payload bytes are identical either way.

func encodeFloats(v []float64) []byte {
	out := transport.GetBuffer(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func addFloats(dst []float64, data []byte) {
	checkFloatPayload(len(dst), data)
	for i := range dst {
		dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	transport.PutBuffer(data)
}

func copyFloats(dst []float64, data []byte) {
	readFloats(dst, data)
	transport.PutBuffer(data)
}

func readFloats(dst []float64, data []byte) {
	checkFloatPayload(len(dst), data)
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
}

func addIntoFrame(data []byte, local []float64) {
	checkFloatPayload(len(local), data)
	for i, x := range local {
		sum := x + math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(sum))
	}
}
