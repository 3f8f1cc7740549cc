// Package compress holds the gradient codings that stand alone from a
// collective:
//
//   - Sign: deterministic 1-bit signSGD (Bernstein et al., ICML'18), the
//     ℓ1-scaled sign vector a worker would ship.
//   - The Elias gamma coder (elias.go) that compacts the per-coordinate
//     sign sums of the bit-width-expansion baselines on the wire.
//
// The compared schemes themselves (SSDM, EF-signSGD, PowerSGD, cascading
// compression) run as registered collectives, each with its own coding.
package compress

import (
	"marsit/internal/bitvec"
	"marsit/internal/tensor"
)

// Payload is a sign-compressed gradient as it would appear on the wire.
type Payload struct {
	// Signs holds one bit per element.
	Signs *bitvec.Vec
	// Norm is the scaling constant transmitted alongside the signs
	// (‖g‖₁/D for scaled signSGD).
	Norm float64
	// Bits is the wire size in bits, as accounted by the scheme.
	Bits int
}

// normBits is the cost of shipping one scaling constant.
const normBits = 32

// Sign is deterministic 1-bit sign compression. The receiver scales the
// ±1 vector by Norm = ‖g‖₁/D (the ℓ1-scaled variant, which keeps the
// magnitude information a plain sign vector loses; scaling by a constant
// does not change the sign-descent direction).
type Sign struct{}

// NewSign returns the deterministic sign compressor.
func NewSign() Sign { return Sign{} }

// Compress encodes g as its signs and ℓ1 scale. It does not retain g.
func (Sign) Compress(g tensor.Vec) *Payload {
	scale := 0.0
	if len(g) > 0 {
		scale = tensor.Norm1(g) / float64(len(g))
	}
	return &Payload{
		Signs: bitvec.FromSigns(g),
		Norm:  scale,
		Bits:  len(g) + normBits,
	}
}
