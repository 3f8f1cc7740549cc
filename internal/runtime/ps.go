package runtime

import (
	"encoding/binary"
	"fmt"
	"math"

	"marsit/internal/bitvec"
	"marsit/internal/collective"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// This file ports the parameter-server family to the concurrent engine
// with a hub actor: instead of a ring schedule, rank 0 hosts the hub
// endpoint and serves push–pull over the Transport interface. Every
// rank pushes its payload (carrying its virtual clock); the hub folds
// the payloads in rank order, applies collective.HubSchedule — the
// exact ingress/egress serialization arithmetic of the sequential
// virtual hub — and replies to each rank with the aggregate and its
// arrival time. The hub is not an extra cluster member: as in the
// sequential accounting, both up and down traffic are charged to the
// worker, and rank 0 doubles as worker 0 exactly like every other rank.
//
// A dead rank poisons the fabric rather than hanging it: the hub's
// blocked Recv (or a worker's blocked reply Recv) returns ErrClosed
// once the transport observes the peer loss, and the resulting panic
// carries the failure to the caller (cmd/marsit-node converts it into
// an orderly non-zero exit).

// hubRank is the rank hosting the hub actor.
const hubRank = 0

// runHub performs one push–pull through the rank-0-hosted hub. push is
// this rank's uplink payload (ownership passes; pooled). upBytes and
// downBytes are the uniform simulated sizes per direction. On the hub,
// fold is called once per rank in rank order with each rank's payload
// (which it must consume/recycle), then reply must return the pooled
// downlink payload. Every rank returns its downlink payload (caller
// consumes/recycles) after charging the hub-serialized arrival time and
// the round's wire bytes, up plus down, once. The push, every gather,
// every reply and the pull are frames of the rank's rankCtx, so the
// hub's fold falls outside them: its wall time is local work.
func runHub(c *netsim.Cluster, ep transport.Endpoint, push []byte, upBytes, downBytes int,
	fold func(rank int, payload []byte), reply func() []byte) []byte {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	rk := newRankCtx(c, ep, rank)
	defer rk.finish()
	c.AccountBytes(rank, upBytes+downBytes)
	// The frames' wire stamps are the simulated per-direction sizes, so
	// transport metrics attribute PS traffic; the receivers only consume
	// Clock (arrival arithmetic runs through collective.HubSchedule), so
	// the stamps cannot perturb results.
	if rank != hubRank {
		rk.send(hubRank, push, upBytes, rk.clk)
		p := rk.recv(hubRank)
		rk.clk = p.Clock
		return p.Data
	}

	// Hub side: gather every rank's payload and clock, in rank order.
	clocks := make([]float64, n)
	clocks[hubRank] = rk.clk
	fold(hubRank, push)
	for w := 0; w < n; w++ {
		if w == hubRank {
			continue
		}
		p := rk.recv(w)
		clocks[w] = p.Clock
		fold(w, p.Data)
	}
	arrivals := collective.HubSchedule(c.Model, clocks, upBytes, downBytes)
	down := reply()
	for w := 0; w < n; w++ {
		if w == hubRank {
			continue
		}
		buf := transport.GetBuffer(len(down))
		copy(buf, down)
		rk.send(w, buf, downBytes, arrivals[w])
	}
	rk.clk = arrivals[hubRank]
	return down
}

// psAllReduceRank executes one rank's share of the full-precision
// parameter-server baseline (collective.PSAllReduce): the full gradient
// up, the mean back down. vec holds the element-wise mean on return.
// The sequential baseline has no closing barrier, and neither does
// this.
func psAllReduceRank(c *netsim.Cluster, ep transport.Endpoint, vec tensor.Vec) {
	rank, n := ep.Rank(), ep.Size()
	d := len(vec)
	var mean tensor.Vec
	if rank == hubRank {
		mean = tensor.New(d)
	}
	wire := collective.DenseWireBytes(d)
	down := runHub(c, ep, encodeFloats(vec), wire, wire,
		func(_ int, payload []byte) { addFloats(mean, payload) },
		func() []byte {
			tensor.Scale(mean, 1/float64(n))
			return encodeFloats(mean)
		})
	copyFloats(vec, down)
}

// signMajorityPSRank executes one rank's share of signSGD with majority
// vote under PS (collective.SignMajorityPS): sign bits and the ℓ1/D
// magnitude up, the coordinate-wise majority back down, the result
// scaled by the mean magnitude.
func signMajorityPSRank(c *netsim.Cluster, ep transport.Endpoint, vec tensor.Vec) {
	rank, n := ep.Rank(), ep.Size()
	d := len(vec)
	// The sequential engine charges both the sign packing and the
	// decode before the hub exchange; reproduce that order.
	c.AddCompress(rank, d)
	c.AddDecompress(rank, d)
	bits := bitvec.FromSigns(vec)
	myScale := tensor.Norm1(vec) / float64(d)

	// The hub keeps the decoded votes and counts them a word at a time;
	// scale is summed in rank order.
	var votes []*bitvec.Vec
	scale := 0.0
	wire := collective.SignWireBytes(d)
	down := runHub(c, ep, encodeSignScale(bits, myScale), wire, wire,
		func(_ int, payload []byte) {
			b, s := decodeSignScale(payload, d)
			votes = append(votes, b)
			scale += s
		},
		func() []byte {
			scale /= float64(n)
			majority := bitvec.New(d)
			majority.Majority(votes)
			return encodeSignScale(majority, scale)
		})
	maj, meanScale := decodeSignScale(down, d)
	maj.UnpackScaled(vec, meanScale)
}

// scaledSignPSRank executes one rank's share of the norm-weighted
// sign push–pull under PS (the exchange of SSDM-PS and of the train
// layer's PS sign transports): the rank's ±1 votes, packed one bit each,
// and its scale up, the dense mean (1/M)·Σ scale_m·sign_m back down. The
// caller owns the compression and decode charges around it, mirroring
// the sequential layering.
func scaledSignPSRank(c *netsim.Cluster, ep transport.Endpoint, votes []int64, scale float64) tensor.Vec {
	rank, n := ep.Rank(), ep.Size()
	d := len(votes)
	var mean tensor.Vec
	if rank == hubRank {
		mean = tensor.New(d)
	}
	down := runHub(c, ep, encodeSigns(votes, scale), collective.SignWireBytes(d), collective.DenseWireBytes(d),
		func(_ int, payload []byte) {
			signs := transport.GetFloats(d)
			s := decodeSigns(payload, signs)
			for i := range mean {
				mean[i] += s * signs[i]
			}
			transport.PutFloats(signs)
		},
		func() []byte {
			tensor.Scale(mean, 1/float64(n))
			return encodeFloats(mean)
		})
	update := tensor.New(d)
	copyFloats(update, down)
	return update
}

// ssdmPSRank executes one rank's share of SSDM under PS
// (collective.SSDMPS): stochastic signs + norm up, the dense mean back
// down. r must be the rank's own SSDM stream. The sequential baseline
// charges only the compression (the dense downlink needs no decode).
func ssdmPSRank(c *netsim.Cluster, ep transport.Endpoint, vec tensor.Vec, r *rng.PCG) {
	rank := ep.Rank()
	d := len(vec)
	votes := transport.GetInt64s(d)
	norm := collective.SSDMVotesInto(votes, vec, r)
	c.AddCompress(rank, d)
	copy(vec, scaledSignPSRank(c, ep, votes, norm))
	transport.PutInt64s(votes)
}

// The sign frame every one-bit-per-element payload of this package
// shares — the PS sign uplinks and downlink, and the cascading ring's
// hops — is the 8-byte scaling constant followed by the bitvec.Marshal
// form of the signs (bit length, then one bit per sign, set = +1): what
// netsim charges for, one bit per element plus the constant, is what
// travels. A ±1 round-trips through its bit exactly.

// encodeSigns packs the ±1 votes of the sign-vote family and their
// scaling constant into a pooled sign frame, with no bit vector in
// between.
func encodeSigns(votes []int64, scale float64) []byte {
	out := transport.GetBuffer(8 + 4 + (len(votes)+7)/8)
	binary.LittleEndian.PutUint64(out, math.Float64bits(scale))
	bitvec.MarshalSigns(out[8:], votes)
	return out
}

// signFrameScale splits a received sign frame into its scaling constant
// and the marshalled signs.
func signFrameScale(data []byte) (float64, []byte) {
	if len(data) < 8 {
		panic(fmt.Sprintf("runtime: sign-scale payload of %d bytes", len(data)))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:]
}

// decodeSigns unpacks a sign frame of len(signs) bits into ±1.0 floats,
// a word at a time, recycles it and returns the scaling constant.
func decodeSigns(data []byte, signs []float64) float64 {
	scale, body := signFrameScale(data)
	if err := bitvec.UnmarshalSigns(body, signs); err != nil {
		panic(fmt.Sprintf("runtime: sign-scale payload: %v", err))
	}
	transport.PutBuffer(data)
	return scale
}

// encodeSignScale is encodeSigns for signs already packed in a bit
// vector.
func encodeSignScale(bits *bitvec.Vec, scale float64) []byte {
	out := transport.GetBuffer(8 + bits.MarshalBytes())
	binary.LittleEndian.PutUint64(out, math.Float64bits(scale))
	bits.MarshalInto(out[8:])
	return out
}

// decodeSignScale parses a sign frame of d bits into a new bit vector
// (what the majority hub votes on) and recycles it.
func decodeSignScale(data []byte, d int) (*bitvec.Vec, float64) {
	bits := new(bitvec.Vec)
	scale := decodeSignScaleInto(data, bits, d)
	return bits, scale
}

// decodeSignScaleInto is decodeSignScale into dst, which takes the
// frame's length and keeps its words when they have room (the cascading
// ring decodes every hop into one vector).
func decodeSignScaleInto(data []byte, dst *bitvec.Vec, d int) float64 {
	scale, body := signFrameScale(data)
	if err := bitvec.UnmarshalInto(dst, body); err != nil {
		panic(fmt.Sprintf("runtime: sign-scale payload: %v", err))
	}
	if dst.Len() != d {
		panic(fmt.Sprintf("runtime: sign-scale payload of %d bits for dim %d", dst.Len(), d))
	}
	transport.PutBuffer(data)
	return scale
}
