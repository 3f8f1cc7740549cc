package runtime

import (
	"encoding/binary"
	"fmt"
	"math"

	"marsit/internal/collective"
	"marsit/internal/compress"
	"marsit/internal/netsim"
	"marsit/internal/tensor"
	"marsit/internal/topology"
	"marsit/internal/transport"
)

// This file ports the bit-width-expansion sign-sum collectives of
// Section 3.1 ("SSDM (Overflow)" and majority-vote signSGD transports)
// to the concurrent engine: per-coordinate integer sign sums circulate a
// reduce-scatter + all-gather ring whose payload width grows with the
// number of aggregated workers, optionally compacted with Elias gamma
// coding — in which case the entropy-coded bytes genuinely travel the
// wire. Results, wire bytes and α–β clocks are bit-identical to
// collective.SignSumRing / SignSumTorus / OverflowRing.
//
// A rank's whole state is one []int64 of length D that its caller draws
// from the shared pool: it enters holding the rank's ±1 votes, every
// received chunk is added or copied into it straight from the payload
// bytes, and it leaves holding the consensus sums. Nothing else of size D
// exists on this path.
//
// The scaling constants ride along the payloads (their 4 simulated bytes
// are part of every message, as in the sequential accounting): each
// reduce-scatter hop forwards the scale data received on the previous
// hop, so after m−1 hops a rank holds every ring member's original
// constant and can form the total in rank order — the exact float
// summation order of the sequential engine.

// encodeSignSumChunk serializes one hop's sign-sum chunk: the scale
// payload riding along (a small float64 vector, empty in the
// all-gather) followed by the segment's integer sums — raw
// little-endian int64s, or the exact Elias-gamma bytes when useElias is
// set (the paper's compaction, actually on the wire, encoded straight
// into the pooled payload). eliasBits is the coded length signSumHopWire
// already measured for the hop. The buffer comes from the shared
// payload pool.
func encodeSignSumChunk(vals []int64, scales []float64, useElias bool, eliasBits int) []byte {
	sumBytes := 8 * len(vals)
	if useElias {
		sumBytes = (eliasBits + 7) / 8
	}
	out := transport.GetBuffer(4 + 8*len(scales) + sumBytes)
	binary.LittleEndian.PutUint32(out, uint32(len(scales)))
	off := 4
	for _, s := range scales {
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(s))
		off += 8
	}
	if useElias {
		compress.EliasEncodeIntsBuf(vals, out[off:off])
	} else {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(out[off:], uint64(v))
			off += 8
		}
	}
	return out
}

// signSumHopWire sizes one hop's message: the exact Elias bit length
// when coded (computed once, without materializing the stream, and
// returned so the encoder can reuse it), the bit-width-expansion
// formula otherwise — the same shared formulas
// collective.SignSumSegBytes charges sequentially. eliasBits is -1
// without Elias.
func signSumHopWire(workers int, vals []int64, useElias bool) (wire, eliasBits int) {
	if useElias {
		bits := compress.EliasIntsBitLen(vals)
		return collective.EliasWireBytes(bits), bits
	}
	return collective.SignSumSegBytes(workers, vals, false), -1
}

// parseSignSumScales reads the scale header of a chunk that rank
// received from peer and returns the scales (nil when there are none) and
// the sums offset. A chunk must carry exactly want scales — the ring
// indexes them by position later, so any other count is a corrupt or
// mismatched frame and is rejected here, by name.
func parseSignSumScales(rank, peer int, data []byte, want int) ([]float64, int) {
	if len(data) < 4 {
		panic(fmt.Sprintf("runtime: rank %d: peer %d sent a sign-sum chunk of %d bytes", rank, peer, len(data)))
	}
	if got := int(binary.LittleEndian.Uint32(data)); got != want {
		panic(fmt.Sprintf("runtime: rank %d: peer %d sent %d scales, want %d", rank, peer, got, want))
	}
	off := 4
	if len(data) < off+8*want {
		panic(fmt.Sprintf("runtime: rank %d: peer %d sent a sign-sum chunk of %d bytes for %d scales", rank, peer, len(data), want))
	}
	if want == 0 {
		return nil, off
	}
	scales := make([]float64, want)
	for i := range scales {
		scales[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return scales, off
}

// checkRawSums rejects a raw sums body that is not 8 bytes per element.
func checkRawSums(rank, peer int, body []byte, n int) {
	if len(body) != 8*n {
		panic(fmt.Sprintf("runtime: rank %d: peer %d sent %d bytes of sums, want %d", rank, peer, len(body), 8*n))
	}
}

// addSignSumChunk merges a chunk that rank received from peer into dst
// (dst[i] += v_i) straight from the payload bytes: no decoded slice
// materializes on either path, the Elias one decodes and adds in one
// loop. The chunk must carry wantScales scales, which are returned (nil
// for none). The payload is recycled.
func addSignSumChunk(rank, peer int, dst []int64, data []byte, useElias bool, wantScales int) []float64 {
	scales, off := parseSignSumScales(rank, peer, data, wantScales)
	body := data[off:]
	if useElias {
		if err := compress.EliasDecodeAddInto(body, dst); err != nil {
			panic(fmt.Sprintf("runtime: rank %d: peer %d: sign-sum elias payload: %v", rank, peer, err))
		}
	} else {
		checkRawSums(rank, peer, body, len(dst))
		for i := range dst {
			dst[i] += int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
	}
	transport.PutBuffer(data)
	return scales
}

// copySignSumChunk overwrites dst with the sums of a chunk that rank
// received from peer (the all-gather combine, which carries no scales);
// the Elias path decodes directly into dst.
func copySignSumChunk(rank, peer int, dst []int64, data []byte, useElias bool) {
	_, off := parseSignSumScales(rank, peer, data, 0)
	body := data[off:]
	if useElias {
		if err := compress.EliasDecodeIntsInto(body, dst); err != nil {
			panic(fmt.Sprintf("runtime: rank %d: peer %d: sign-sum elias payload: %v", rank, peer, err))
		}
	} else {
		checkRawSums(rank, peer, body, len(dst))
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
	}
	transport.PutBuffer(data)
}

// signSumPhase runs one ring phase of the integer-sum schedule for this
// rank at position p of an m-ring (neighbors next and prev): a
// reduce-scatter accumulating into sums, then the all-gather writing the
// consensus back. ownScales is the rank's scale payload for this phase;
// the returned slice holds every ring member's scale payload indexed by
// ring position (own included). baseCount is the worker count already
// aggregated per member (1 for a flat ring, cols for a torus column
// phase), matching the sequential bit-width arithmetic.
func signSumPhase(rk *rankCtx, next, prev, p, m int, sums []int64, baseCount int, useElias bool, ownScales []float64) [][]float64 {
	scalesByPos := make([][]float64, m)
	scalesByPos[p] = ownScales
	if m < 2 {
		return scalesByPos
	}
	segs := tensor.Partition(len(sums), m)

	// Reduce-scatter: at step s send segment (p−s) mod m downstream with
	// the scale payload that originated at position (p−s) mod m, and
	// accumulate the received segment (p−s−1) mod m straight from the
	// payload bytes.
	for s := 0; s < m-1; s++ {
		out := segs[mod(p-s, m)]
		outVals := sums[out.Lo:out.Hi]
		outScales := scalesByPos[mod(p-s, m)]
		wire, hopBits := signSumHopWire((s+1)*baseCount, outVals, useElias)
		in := segs[mod(p-s-1, m)]
		data := rk.exchange(next, encodeSignSumChunk(outVals, outScales, useElias, hopBits), wire, prev)
		// Every member of a phase contributes as many scales as this rank.
		scalesByPos[mod(p-1-s, m)] = addSignSumChunk(rk.rank, prev, sums[in.Lo:in.Hi], data, useElias, len(ownScales))
	}

	// All-gather: position p now owns the consensus of segment
	// (p+1) mod m; circulate the final segments (no scales left to learn,
	// but the constant still rides each payload in the wire accounting).
	for s := 0; s < m-1; s++ {
		out := segs[mod(p+1-s, m)]
		outVals := sums[out.Lo:out.Hi]
		wire, hopBits := signSumHopWire(m*baseCount, outVals, useElias)
		in := segs[mod(p-s, m)]
		data := rk.exchange(next, encodeSignSumChunk(outVals, nil, useElias, hopBits), wire, prev)
		copySignSumChunk(rk.rank, prev, sums[in.Lo:in.Hi], data, useElias)
	}
	return scalesByPos
}

// signSumRingRank executes one rank's share of the sign-sum ring. sums
// enters holding the rank's ±1 votes and leaves holding the consensus
// per-coordinate sums; scale is the rank's scaling constant (ℓ2 norm for
// SSDM, ℓ1/D for signSGD) and the returned total is its sum over all
// ranks. Both are identical on every rank and bit-identical to
// collective.SignSumRing. The caller owns any closing barrier.
func signSumRingRank(c *netsim.Cluster, ep transport.Endpoint, sums []int64, scale float64, useElias bool) float64 {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if n == 1 {
		return scale
	}
	rk := newRankCtx(c, ep, rank)
	scalesByPos := signSumPhase(rk, mod(rank+1, n), mod(rank-1, n), rank, n, sums, 1, useElias, []float64{scale})
	rk.finish()
	// Total in rank order 0..n−1: the sequential engine's exact float
	// summation order.
	total := 0.0
	for w := 0; w < n; w++ {
		total += scalesByPos[w][0]
	}
	return total
}

// signSumTorusRank is signSumRingRank over a 2D torus: a row-ring phase
// first, then a column-ring phase whose payload width starts at the row
// width — exactly the hierarchical schedule of collective.SignSumTorus.
func signSumTorusRank(c *netsim.Cluster, ep transport.Endpoint, tor *topology.Torus, sums []int64, scale float64, useElias bool) float64 {
	checkRankCluster(c, ep)
	rank, n := ep.Rank(), ep.Size()
	if tor.Size() != n {
		panic("runtime: torus size mismatch")
	}
	if n == 1 {
		return scale
	}
	rows, cols := tor.Rows(), tor.Cols()
	r, p := tor.Coord(rank)
	rk := newRankCtx(c, ep, rank)

	// Row phase: each member contributes its own constant; afterwards
	// the rank knows its whole row's constants by row position.
	rowScales := signSumPhase(rk, tor.Rank(r, p+1), tor.Rank(r, p-1), p, cols, sums, 1, useElias, []float64{scale})
	myRow := make([]float64, cols)
	for q := 0; q < cols; q++ {
		myRow[q] = rowScales[q][0]
	}

	// Column phase: each member contributes its row's constants, so the
	// chain delivers every rank's constant.
	colScales := signSumPhase(rk, tor.Rank(r+1, p), tor.Rank(r-1, p), r, rows, sums, cols, useElias, myRow)
	rk.finish()

	total := 0.0
	for w := 0; w < n; w++ {
		wr, wp := tor.Coord(w)
		total += colScales[wr][wp]
	}
	return total
}
