//go:build amd64 || arm64

package runtime

import (
	"unsafe"

	"marsit/internal/transport"
)

// Fast codecs for little-endian machines with unaligned load support:
// the raw-little-endian float payload is exactly the in-memory
// representation of a []float64, so encode/copy reduce to memmove-speed
// copies and the reduce-scatter combine to a vectorizable float add.
// The portable codecs' per-element binary.LittleEndian +
// math.Float64bits round trip was the top entry of the loopback CPU
// profile (~29% in encodeFloats alone); see docs/performance.md. Both
// variants produce byte-identical payloads — the cross-engine
// equivalence matrix holds either way.

func encodeFloats(v []float64) []byte {
	out := transport.GetBuffer(8 * len(v))
	if len(v) > 0 {
		copy(out, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
	}
	return out
}

func addFloats(dst []float64, data []byte) {
	checkFloatPayload(len(dst), data)
	if len(dst) > 0 {
		src := unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), len(dst))
		for i, x := range src {
			dst[i] += x
		}
	}
	transport.PutBuffer(data)
}

func copyFloats(dst []float64, data []byte) {
	readFloats(dst, data)
	transport.PutBuffer(data)
}

func readFloats(dst []float64, data []byte) {
	checkFloatPayload(len(dst), data)
	if len(dst) > 0 {
		copy(dst, unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), len(dst)))
	}
}

func addIntoFrame(data []byte, local []float64) {
	checkFloatPayload(len(local), data)
	if len(local) > 0 {
		frame := unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), len(local))
		for i, x := range local {
			frame[i] = x + frame[i]
		}
	}
}
