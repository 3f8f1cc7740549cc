// Package collective implements the synchronization paradigms the paper
// studies, over the netsim substrate:
//
//   - full-precision multi-hop all-reduce: ring (RAR), 2D-torus (TAR),
//     and binary tree, all via reduce-scatter/all-gather schedules;
//   - the parameter-server (PS) push–pull with a virtual hub;
//   - gossip neighbor averaging (related work, Section 1);
//   - the compressed MAR baselines of Sections 3 and 5: cascading SSDM
//     compression, the bit-width-expansion ("overflow") SSDM scheme with
//     optional Elias coding, majority-vote signSGD under PS, and SSDM
//     under PS.
//
// Every collective mutates the per-worker vectors in place so that all
// workers end holding the same estimate of the mean gradient
// (1/M)·Σ_m g_m, and charges simulated time and wire bytes to the
// cluster. The Marsit collective itself lives in internal/core.
package collective

import (
	"fmt"
	"math"

	"marsit/internal/bitvec"
	"marsit/internal/compress"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// float32WireBytes is the wire width of one full-precision element.
const float32WireBytes = 4

// normWireBytes is the wire width of one transmitted scaling constant.
const normWireBytes = 4

// The wire-size formulas below are shared with the concurrent engine
// (internal/runtime ports each collective per rank): both engines must
// charge byte-identical wire costs, so the formulas live here only.

// DenseWireBytes is the simulated wire size of a dense full-precision
// vector of dimension d (float32 on the wire).
func DenseWireBytes(d int) int { return d * float32WireBytes }

// SignWireBytes is the simulated wire size of a one-bit sign payload of
// dimension d plus its scaling constant.
func SignWireBytes(d int) int { return (d+7)/8 + normWireBytes }

// SignSumSegBytes is the simulated wire size of one sign-sum ring
// payload carrying vals (per-coordinate integer sums aggregated over
// workers workers) plus the scale constant riding along. Without Elias
// the per-element width is the bit-length expansion ⌈log2 workers⌉+1;
// with Elias it is the exact entropy-coded size of vals.
func SignSumSegBytes(workers int, vals []int64, useElias bool) int {
	if useElias {
		_, bits := compress.EliasEncodeInts(vals)
		return EliasWireBytes(bits)
	}
	perElem := bitsFor(workers) + 1
	return (len(vals)*perElem+7)/8 + normWireBytes
}

// EliasWireBytes is the wire size of an Elias-coded sign-sum payload of
// the given bit length, plus the scale constant riding along — the
// Elias arm of SignSumSegBytes, exposed so a caller that has already
// entropy-coded the payload (the concurrent engine puts the coded bytes
// on the wire) does not encode twice just to size the message.
func EliasWireBytes(bits int) int { return (bits+7)/8 + normWireBytes }

// HubSchedule computes the parameter-server push–pull arrival times of
// HubPushPull from the workers' clocks at push time: uplinks of upBytes
// each serialize on the hub NIC in rank order, then the hub streams the
// replies of downBytes each back, also in rank order. arrivals[w] is the
// simulated time worker w's reply lands. Shared with the concurrent
// engine's hub actor (internal/runtime), whose rank-0-hosted hub applies
// exactly this arithmetic to the clocks carried on the push packets.
func HubSchedule(model netsim.CostModel, clocks []float64, upBytes, downBytes int) []float64 {
	beta := model.BytePeriod
	alpha := model.Latency

	// Ingress: arrivals serialize on the hub NIC in rank order.
	hub := 0.0
	for w := range clocks {
		arrive := clocks[w] + alpha
		if hub < arrive {
			hub = arrive
		}
		hub += float64(upBytes) * beta
	}
	// Egress: hub sends replies in rank order (cut-through).
	sendStart := hub
	arrivals := make([]float64, len(clocks))
	for w := range clocks {
		arrivals[w] = sendStart + alpha + float64(downBytes)*beta
		sendStart += float64(downBytes) * beta
	}
	return arrivals
}

func checkShape(c *netsim.Cluster, vecs []tensor.Vec) int {
	if len(vecs) != c.Size() {
		panic(fmt.Sprintf("collective: %d vectors for %d workers", len(vecs), c.Size()))
	}
	if len(vecs) == 0 {
		panic("collective: no workers")
	}
	d := len(vecs[0])
	for w, v := range vecs {
		if len(v) != d {
			panic(fmt.Sprintf("collective: worker %d has dim %d, want %d", w, len(v), d))
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// Full-precision ring and 2D-torus all-reduce

// RingAllReduce performs full-precision ring all-reduce (RAR) over all
// workers: the 1×M case of TorusAllReduce, whose row reduce-scatter and
// all-gather (M−1 steps each) are then the ring's two passes. On return
// every vector holds the element-wise mean.
func RingAllReduce(c *netsim.Cluster, vecs []tensor.Vec) { TorusAllReduce(c, nil, vecs) }

// TorusAllReduce performs full-precision 2D-torus all-reduce (TAR) in
// the bandwidth-optimal hierarchical form (Mikami et al.):
//
//  1. ring reduce-scatter along each row — worker at row position p
//     ends owning row segment (p+1) mod cols with the row-wide sum;
//  2. ring all-reduce along each column restricted to the owned
//     segment — the segment becomes the global sum;
//  3. ring all-gather along each row to restore the full vector.
//
// Total bytes match flat RAR (~2D per worker) but the step count drops
// from 2(M−1) to 2(cols−1)+2(rows−1), which is why TAR communicates
// faster (Figure 5). A nil tor is the flat ring, the 1×M torus, whose
// column phase is empty; an M×1 torus's column ring is the ring too. On
// return every vector holds the element-wise mean. The torus size must
// equal the cluster size.
func TorusAllReduce(c *netsim.Cluster, tor *topology.Torus, vecs []tensor.Vec) {
	d := checkShape(c, vecs)
	if tor == nil {
		tor = topology.NewTorus(1, c.Size())
	}
	if tor.Size() != c.Size() {
		panic("collective: torus size mismatch")
	}
	cols, whole := tor.Cols(), tensor.Segment{Hi: d}
	rowSegs := tensor.Partition(d, cols)
	rowGroups := tor.RowGroups()
	for _, g := range rowGroups {
		ringPass(c, g, viewsOf(vecs, g, whole), rowSegs, false, denseBytes)
	}
	// Worker (r, p) now owns row segment (p+1) mod cols; the column ring
	// sums it, after which every member of column p holds the global sum
	// of that segment.
	for p, g := range tor.ColGroups() {
		ringSum(c, g, viewsOf(vecs, g, rowSegs[(p+1)%cols]))
	}
	for _, g := range rowGroups {
		ringPass(c, g, viewsOf(vecs, g, whole), rowSegs, true, denseBytes)
	}
	for _, v := range vecs {
		tensor.Scale(v, 1/float64(c.Size()))
	}
	c.Barrier()
}

// viewsOf returns seg of each listed worker's vector, in list order.
func viewsOf(vecs []tensor.Vec, ranks []int, seg tensor.Segment) []tensor.Vec {
	views := make([]tensor.Vec, len(ranks))
	for i, w := range ranks {
		views[i] = seg.Of(vecs[w])
	}
	return views
}

// denseBytes prices a full-precision ring message by its length.
func denseBytes(_ int, seg tensor.Vec) int { return DenseWireBytes(len(seg)) }

// ringSum runs ring all-reduce (sum) over views, one slice per rank of
// ranks in ring order: a reduce-scatter and an all-gather pass over the
// views' partition into len(ranks) segments. Afterwards every view holds
// the sum.
func ringSum(c *netsim.Cluster, ranks []int, views []tensor.Vec) {
	segs := tensor.Partition(len(views[0]), len(ranks))
	ringPass(c, ranks, views, segs, false, denseBytes)
	ringPass(c, ranks, views, segs, true, denseBytes)
}

// ringPass runs the m−1 steps of one pass of ring all-reduce over one
// ring group, for full-precision floats and integer sign sums alike:
// ring position p holds views[p] of worker ranks[p]. At step s of the
// reduce-scatter, p sends segment (p−s) mod m downstream and the
// receiver adds it; at step s of the all-gather, p sends its freshest
// segment (p+1−s) mod m and the receiver overwrites. bytes(s, seg)
// prices the message carrying seg at step s.
//
// No message is snapshotted: within one step the segment a rank sends
// is never the one it writes (they are one position apart), so each
// receiver reads its sender's view directly, and the order in which the
// receivers apply cannot matter.
func ringPass[S ~[]E, E float64 | int64](c *netsim.Cluster, ranks []int, views []S, segs []tensor.Segment,
	gather bool, bytes func(step int, seg S) int) {
	m := len(ranks)
	pos := func(i int) int { return ((i % m) + m) % m }
	shift := 0
	if gather {
		shift = 1
	}
	for s := 0; s < m-1; s++ {
		msgs := make([]netsim.Message, 0, m)
		for p := 0; p < m; p++ {
			seg := segs[pos(p+shift-s)]
			msgs = append(msgs, netsim.Message{From: ranks[p], To: ranks[pos(p+1)], Bytes: bytes(s, views[p][seg.Lo:seg.Hi])})
		}
		c.Exchange(msgs)
		for p := 0; p < m; p++ {
			seg := segs[pos(p+shift-s-1)]
			dst, src := views[p][seg.Lo:seg.Hi], views[pos(p-1)][seg.Lo:seg.Hi]
			if gather {
				copy(dst, src)
				continue
			}
			for i := range dst {
				dst[i] += src[i]
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Full-precision tree all-reduce

// TreeSchedule runs one reduce-and-broadcast over the binary tree tr in
// lock step, the one level-by-level loop of every sequential tree
// collective: the reduce goes up from the deepest level, one Exchange a
// level in which every node of the level sends bytes to its parent, and
// then up(parent, child) for each of them in ascending child order; root
// runs once the root holds the reduction; the broadcast goes down from
// level 1, one Exchange a level of bytes from every parent to each of
// its children, and then down(parent, child) in ascending child order.
// The caller owns the closing barrier.
func TreeSchedule(c *netsim.Cluster, tr *topology.Tree, bytes int, up func(parent, child int), root func(),
	down func(parent, child int)) {
	depth := make([]int, c.Size())
	maxDepth := 0
	for w := range depth {
		depth[w] = tr.Depth(w)
		maxDepth = max(maxDepth, depth[w])
	}
	level := func(lvl int, upward bool, apply func(parent, child int)) {
		var msgs []netsim.Message
		for w, dep := range depth {
			if dep == lvl {
				m := netsim.Message{From: w, To: tr.Parent(w), Bytes: bytes}
				if !upward {
					m.From, m.To = m.To, m.From
				}
				msgs = append(msgs, m)
			}
		}
		c.Exchange(msgs)
		for w, dep := range depth {
			if dep == lvl {
				apply(tr.Parent(w), w)
			}
		}
	}
	for lvl := maxDepth; lvl >= 1; lvl-- {
		level(lvl, true, up)
	}
	root()
	for lvl := 1; lvl <= maxDepth; lvl++ {
		level(lvl, false, down)
	}
}

// TreeAllReduce reduces up a binary tree to rank 0 and broadcasts the
// mean back down. On return every vector holds the element-wise mean.
func TreeAllReduce(c *netsim.Cluster, tr *topology.Tree, vecs []tensor.Vec) {
	d := checkShape(c, vecs)
	if tr.Size() != c.Size() {
		panic("collective: tree size mismatch")
	}
	TreeSchedule(c, tr, DenseWireBytes(d),
		func(parent, child int) { tensor.Add(vecs[parent], vecs[child]) },
		func() { tensor.Scale(vecs[0], 1/float64(c.Size())) },
		func(parent, child int) { copy(vecs[child], vecs[parent]) })
	c.Barrier()
}

// ---------------------------------------------------------------------------
// Parameter server (virtual hub)

// HubPushPull models a push–pull through a virtual parameter server:
// every worker uploads upBytes, the hub ingests them serially (single
// NIC), then replies downBytes to each worker, serialized on the hub's
// egress. Returns nothing; clocks and byte counters advance. Both up and
// down traffic are accounted to the worker, since the hub is not a
// cluster member (cluster-wide totals then match the paper's 2·M·D
// accounting for PS).
func HubPushPull(c *netsim.Cluster, upBytes, downBytes int) {
	n := c.Size()
	clocks := make([]float64, n)
	for w := 0; w < n; w++ {
		clocks[w] = c.Clock(w)
	}
	arrivals := HubSchedule(c.Model, clocks, upBytes, downBytes)
	for w := 0; w < n; w++ {
		c.AdvanceTransmit(w, arrivals[w])
		c.AccountBytes(w, upBytes+downBytes)
	}
}

// PSAllReduce is the full-precision parameter-server baseline (PSGD
// under PS): full gradients up, the mean back down.
func PSAllReduce(c *netsim.Cluster, vecs []tensor.Vec) {
	d := checkShape(c, vecs)
	n := c.Size()
	mean := make(tensor.Vec, d)
	for _, v := range vecs {
		tensor.Add(mean, v)
	}
	tensor.Scale(mean, 1/float64(n))
	for _, v := range vecs {
		copy(v, mean)
	}
	HubPushPull(c, DenseWireBytes(d), DenseWireBytes(d))
}

// ---------------------------------------------------------------------------
// Gossip

// GossipAverage performs one symmetric gossip step on a ring: every
// worker exchanges its full vector with both ring neighbors and
// replaces its value with the three-point average. Repeated application
// converges to the global mean much more slowly than MAR — the
// Section 1 argument for preferring all-reduce.
//
// At M=2 both ring neighbors coincide on the single peer; the step
// degenerates to one exchange per direction and the two-point average
// (own + peer) / 2 — one message each way, the peer weighted once. At
// M=1 the step is a no-op.
func GossipAverage(c *netsim.Cluster, vecs []tensor.Vec) {
	d := checkShape(c, vecs)
	n := c.Size()
	if n == 1 {
		return
	}
	bytes := d * float32WireBytes
	old := make([]tensor.Vec, n)
	for w := range vecs {
		old[w] = tensor.Clone(vecs[w])
	}
	if n == 2 {
		c.Exchange([]netsim.Message{
			{From: 0, To: 1, Bytes: bytes},
			{From: 1, To: 0, Bytes: bytes},
		})
		for w := 0; w < 2; w++ {
			peer := old[1-w]
			for i := 0; i < d; i++ {
				vecs[w][i] = (old[w][i] + peer[i]) / 2
			}
		}
		c.Barrier()
		return
	}
	msgs := make([]netsim.Message, 0, 2*n)
	for w := 0; w < n; w++ {
		msgs = append(msgs,
			netsim.Message{From: w, To: (w + 1) % n, Bytes: bytes},
			netsim.Message{From: w, To: (w - 1 + n) % n, Bytes: bytes},
		)
	}
	c.Exchange(msgs)
	for w := 0; w < n; w++ {
		prev := old[(w-1+n)%n]
		next := old[(w+1)%n]
		for i := 0; i < d; i++ {
			vecs[w][i] = (prev[i] + old[w][i] + next[i]) / 3
		}
	}
	c.Barrier()
}

// ---------------------------------------------------------------------------
// Cascading SSDM compression under RAR (Section 3.2)

// ssdmCompressSeg compresses seg with SSDM semantics using r: returns
// the stochastic sign (+1/−1 per element) and the ℓ2 norm.
func ssdmCompressSeg(seg tensor.Vec, r *rng.PCG) (signs []float64, norm float64) {
	signs = make([]float64, len(seg))
	norm = SSDMSignsInto(signs, seg, r)
	return signs, norm
}

// SSDMSignsInto compresses v with SSDM semantics using r: it writes the
// stochastic ±1 sign vector into dst (length must equal len(v)) and
// returns the ℓ2 norm scaling constant — allocation-free, for the
// concurrent engine's pooled per-hop scratch.
func SSDMSignsInto(dst []float64, v tensor.Vec, r *rng.PCG) float64 {
	return ssdmInto(dst, v, r)
}

// SSDMVotesInto is SSDMSignsInto with each sign written as an integer
// vote, +1 or −1 — what the sign-sum ring circulates, so the concurrent
// engine compresses straight into its sum buffer. Same draws from r,
// same norm.
func SSDMVotesInto(dst []int64, v tensor.Vec, r *rng.PCG) float64 {
	return ssdmInto(dst, v, r)
}

// SSDMBitsInto is SSDMSignsInto into a bit vector of length len(v): bit
// i is set where the stochastic sign is +1. Same draws from r, same
// norm; nothing of the ±1 form is written.
func SSDMBitsInto(dst *bitvec.Vec, v tensor.Vec, r *rng.PCG) float64 {
	if dst.Len() != len(v) {
		panic("collective: SSDM sign vector length mismatch")
	}
	norm := tensor.Norm2(v)
	var t [64]uint64
	for lo := 0; lo < len(v); lo += 64 {
		dst.SetWord(lo>>6, ssdmWord(&t, v[lo:min(lo+64, len(v))], norm, r))
	}
	return norm
}

// ssdmInto writes the words of ssdmWord out as ±1 of either element
// type.
func ssdmInto[T float64 | int64](dst []T, v tensor.Vec, r *rng.PCG) float64 {
	if len(dst) != len(v) {
		panic("collective: SSDM sign vector length mismatch")
	}
	norm := tensor.Norm2(v)
	var t [64]uint64
	for lo := 0; lo < len(v); lo += 64 {
		out := dst[lo:min(lo+64, len(v))]
		w := ssdmWord(&t, v[lo:lo+len(out)], norm, r)
		for j := range out {
			out[j] = T(int64(w&1)<<1 - 1)
			w >>= 1
		}
	}
	return norm
}

// ssdmWord is SSDM on up to 64 elements, returned as the low len(v) bits
// of a word, bit j set where element j compresses to +1: the sign of x
// (−1 iff x < 0, tensor.Sign's convention), kept with probability
// ssdmKeep(x, norm) and flipped otherwise, drawn as r.Bernoulli draws it,
// in index order. t is scratch for the lane thresholds.
//
// The word is neg XOR keep, where keep comes from rng.LanesBelow with
// t_j = pKeep·2⁵³: pKeep ∈ [1/2, 1) is a multiple of 2⁻⁵³, so t_j is an
// integer and x/2⁵³ < pKeep ⟺ x < t_j for every 53-bit draw x. A NaN
// pKeep (an infinite element) gets t_j = 0: a draw, never kept, as
// Bernoulli(NaN). A pKeep of 1 or more is kept without a draw, so a word
// holding one is drawn element by element instead.
func ssdmWord(t *[64]uint64, v []float64, norm float64, r *rng.PCG) uint64 {
	var neg uint64
	sure := false
	for j, x := range v {
		pKeep := ssdmKeep(x, norm)
		switch {
		case pKeep < 1:
			t[j] = uint64(int64(pKeep * (1 << 53)))
		case pKeep >= 1:
			sure = true
		default:
			t[j] = 0
		}
		// As in bitvec's sign packing: the flag enters at the top and
		// shifts down into index order.
		var top uint64
		if x < 0 {
			top = 1 << 63
		}
		neg = neg>>1 | top
	}
	neg >>= uint(64 - len(v))
	if !sure {
		return neg ^ r.LanesBelow(t[:len(v)])
	}
	var keep uint64
	for j, x := range v {
		if r.Bernoulli(ssdmKeep(x, norm)) {
			keep |= 1 << uint(j)
		}
	}
	return neg ^ keep
}

// ssdmKeep is SSDM's probability of keeping the sign of x:
// 1/2 + |x|/(2·norm), or 1/2 at a zero (or NaN) norm.
func ssdmKeep(x, norm float64) float64 {
	if norm > 0 {
		return 0.5 + math.Abs(x)/(2*norm)
	}
	return 0.5
}

// CascadingRing is the cascading-compression workflow of Section 3.2:
// ring reduce-scatter where each hop receives a compressed segment,
// decompresses it, adds the local segment, re-compresses with SSDM and
// forwards — accumulating compression error at every hop. The gather
// phase circulates the final compressed segments. On return every
// vector holds the (error-laden) estimate of the mean; simulated time
// includes the serialized decompression+compression at every hop.
func CascadingRing(c *netsim.Cluster, vecs []tensor.Vec, rs []*rng.PCG) {
	d := checkShape(c, vecs)
	n := c.Size()
	if len(rs) != n {
		panic("collective: need one RNG per worker")
	}
	if n == 1 {
		return
	}
	segs := tensor.Partition(d, n)
	pos := func(i int) int { return ((i % n) + n) % n }
	segBytes := func(s tensor.Segment) int { return SignWireBytes(s.Len()) }

	// State: the payload each worker is about to forward, per segment
	// position. Initially each worker compresses its own outgoing
	// segment (position w for step 0).
	type payload struct {
		signs []float64
		norm  float64
	}
	current := make([]payload, n) // payload held by ring position p

	// Reduce phase.
	for s := 0; s < n-1; s++ {
		msgs := make([]netsim.Message, 0, n)
		outgoing := make([]payload, n)
		for p := 0; p < n; p++ {
			seg := segs[pos(p-s)]
			if s == 0 {
				// First hop: compress own segment.
				signs, norm := ssdmCompressSeg(seg.Of(vecs[p]), rs[p])
				c.AddCompress(p, seg.Len())
				outgoing[p] = payload{signs, norm}
			} else {
				outgoing[p] = current[p]
			}
			msgs = append(msgs, netsim.Message{From: p, To: pos(p + 1), Bytes: segBytes(seg)})
		}
		c.Exchange(msgs)
		for p := 0; p < n; p++ {
			in := outgoing[pos(p-1)]
			seg := segs[pos(p-s-1)]
			// Decompress: w = norm·signs; aggregate with local; recompress.
			local := seg.Of(vecs[p])
			summed := make(tensor.Vec, seg.Len())
			for i := range summed {
				summed[i] = in.norm*in.signs[i] + local[i]
			}
			c.AddDecompress(p, seg.Len())
			signs, norm := ssdmCompressSeg(summed, rs[p])
			c.AddCompress(p, seg.Len())
			current[p] = payload{signs, norm}
		}
	}

	// After the reduce phase, position p holds the fully cascaded
	// payload for segment (p+1) mod n. Gather: circulate payloads
	// unchanged; every worker decompresses into its vector.
	final := make([]payload, n) // final[j] = payload of segment j
	for p := 0; p < n; p++ {
		final[pos(p+1)] = current[p]
	}
	for s := 0; s < n-1; s++ {
		msgs := make([]netsim.Message, 0, n)
		for p := 0; p < n; p++ {
			seg := segs[pos(p+1-s)]
			msgs = append(msgs, netsim.Message{From: p, To: pos(p + 1), Bytes: segBytes(seg)})
		}
		c.Exchange(msgs)
	}
	for w := 0; w < n; w++ {
		for j, seg := range segs {
			pl := final[j]
			dst := seg.Of(vecs[w])
			for i := range dst {
				dst[i] = pl.norm * pl.signs[i] / float64(n)
			}
		}
		c.AddDecompress(w, d)
	}
	c.Barrier()
}

// ---------------------------------------------------------------------------
// Bit-width-expansion SSDM under RAR ("SSDM (Overflow)", Section 3.1)

// SignSumRing circulates per-coordinate integer sign sums around the
// full ring (reduce-scatter + all-gather): SignSumTorus over the 1×M
// torus. votes[w] must hold ±1 per coordinate and is overwritten with
// the sums; scales[w] is the worker's scaling constant (ℓ2 norm for
// SSDM, ℓ1/D for signSGD), whose sum rides along each payload. The payload width grows with the number of
// aggregated workers — the "bit-length expansion" of Section 3.1 — up to
// ⌈log2 m⌉+1 bits per element, or the exact Elias-gamma size when
// useElias is set. It returns the consensus sums and the total scale.
func SignSumRing(c *netsim.Cluster, votes [][]int64, scales []float64, useElias bool) ([]int64, float64) {
	return SignSumTorus(c, nil, votes, scales, useElias)
}

// signSumGroups runs the integer-sum ring schedule within each disjoint
// group simultaneously: sums[w] ends holding worker w's group-wide sums
// (the caller composes phases for hierarchical topologies). A message of
// the reduce-scatter's step s carries sums over (s+1)·baseCount workers,
// one of the all-gather the group's len(g)·baseCount.
func signSumGroups(c *netsim.Cluster, sums [][]int64, groups [][]int, baseCount int, useElias bool) {
	for _, g := range groups {
		m := len(g)
		segs := tensor.Partition(len(sums[0]), m)
		views := make([][]int64, m)
		for p, w := range g {
			views[p] = sums[w]
		}
		ringPass(c, g, views, segs, false, func(s int, vals []int64) int {
			return SignSumSegBytes((s+1)*baseCount, vals, useElias)
		})
		ringPass(c, g, views, segs, true, func(_ int, vals []int64) int {
			return SignSumSegBytes(m*baseCount, vals, useElias)
		})
	}
}

// SignSumTorus is the sign-sum schedule over a 2D torus: row rings
// first, then column rings with accordingly wider payloads. A nil tor is
// the flat ring, the 1×M torus, whose columns are single workers; an M×1
// torus's one column is the ring too. votes[w] holds worker w's ±1 vote
// per coordinate and is where its sums accumulate, so the schedule
// overwrites it; the returned consensus sums alias one of them.
func SignSumTorus(c *netsim.Cluster, tor *topology.Torus, votes [][]int64, scales []float64, useElias bool) ([]int64, float64) {
	n := c.Size()
	if tor == nil {
		tor = topology.NewTorus(1, n)
	}
	if tor.Size() != n {
		panic("collective: torus size mismatch")
	}
	if len(votes) != n || len(scales) != n {
		panic("collective: SignSumTorus needs one vote vector and scale per worker")
	}
	for w := range votes {
		if len(votes[w]) != len(votes[0]) {
			panic("collective: SignSumTorus dim mismatch")
		}
	}
	totalScale := 0.0
	for _, sc := range scales {
		totalScale += sc
	}
	signSumGroups(c, votes, tor.RowGroups(), 1, useElias)
	signSumGroups(c, votes, tor.ColGroups(), tor.Cols(), useElias)
	return votes[0], totalScale
}

// OverflowRing extends SSDM to MAR by keeping the aggregation linear:
// each worker SSDM-compresses once, and the ring circulates integer
// per-coordinate sign sums whose width grows with the hop count (the
// "SSDM (Overflow)" baseline of Figure 1a). With useElias the sums are
// entropy-coded with Elias gamma, the paper's compaction. The result
// approximates the SSDM-PS aggregate with the mean norm standing in for
// per-worker norms (exact when all norms are equal — the i.i.d. cloud
// assumption).
func OverflowRing(c *netsim.Cluster, vecs []tensor.Vec, rs []*rng.PCG, useElias bool) {
	d := checkShape(c, vecs)
	n := c.Size()
	if len(rs) != n {
		panic("collective: need one RNG per worker")
	}
	if n == 1 {
		return
	}
	votes := make([][]int64, n)
	scales := make([]float64, n)
	for w := 0; w < n; w++ {
		votes[w] = make([]int64, d)
		scales[w] = SSDMVotesInto(votes[w], vecs[w], rs[w])
		c.AddCompress(w, d)
	}
	finalSums, totalNorm := SignSumRing(c, votes, scales, useElias)
	meanNorm := totalNorm / float64(n)
	for w := 0; w < n; w++ {
		for i := 0; i < d; i++ {
			vecs[w][i] = meanNorm * float64(finalSums[i]) / float64(n)
		}
		c.AddDecompress(w, d)
	}
	c.Barrier()
}

func bitsFor(n int) int {
	b := 0
	for v := n; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// ---------------------------------------------------------------------------
// PS-based compressed baselines

// SignMajorityPS is signSGD with majority vote under PS: workers push
// sign bits (1 bit/element + norm), the hub takes the coordinate-wise
// majority and broadcasts it back as sign bits. The result is the
// majority sign scaled by the mean ℓ1 magnitude.
func SignMajorityPS(c *netsim.Cluster, vecs []tensor.Vec) {
	d := checkShape(c, vecs)
	n := c.Size()
	votes := make([]int, d)
	scale := 0.0
	for _, v := range vecs {
		for i, x := range v {
			if x >= 0 {
				votes[i]++
			} else {
				votes[i]--
			}
		}
		scale += tensor.Norm1(v) / float64(d)
	}
	scale /= float64(n)
	for w := 0; w < n; w++ {
		c.AddCompress(w, d)
		for i := 0; i < d; i++ {
			if votes[i] >= 0 {
				vecs[w][i] = scale
			} else {
				vecs[w][i] = -scale
			}
		}
		c.AddDecompress(w, d)
	}
	HubPushPull(c, SignWireBytes(d), SignWireBytes(d))
}

// SSDMPS is SSDM under PS: workers push stochastic signs + norm; the
// hub reconstructs (1/M)·Σ norm_m·sign_m and must broadcast the dense
// mean in full precision — the down-link cost the paper's Figure 1a
// charges this baseline.
func SSDMPS(c *netsim.Cluster, vecs []tensor.Vec, rs []*rng.PCG) {
	d := checkShape(c, vecs)
	n := c.Size()
	if len(rs) != n {
		panic("collective: need one RNG per worker")
	}
	mean := make(tensor.Vec, d)
	for w, v := range vecs {
		signs, norm := ssdmCompressSeg(v, rs[w])
		c.AddCompress(w, d)
		for i := range mean {
			mean[i] += norm * signs[i]
		}
	}
	tensor.Scale(mean, 1/float64(n))
	for _, v := range vecs {
		copy(v, mean)
	}
	HubPushPull(c, SignWireBytes(d), DenseWireBytes(d))
}

// MajorityDecode is the signSGD majority decode shared by every layer
// (sequential references, per-rank runners, the registry descriptors):
// the majority sign of each coordinate's sum, scaled by the mean
// magnitude totalScale/workers. Ties (sum 0) decode positive, the
// repository-wide zero-is-positive convention.
func MajorityDecode(sums []int64, totalScale float64, workers int) tensor.Vec {
	meanScale := math.Float64bits(totalScale / float64(workers))
	out := make(tensor.Vec, len(sums))
	for i, s := range sums {
		// A negative sum flips the IEEE sign bit: exact negation for any
		// scale, and no branch on what is a coin toss per coordinate.
		out[i] = math.Float64frombits(meanScale ^ uint64(s)>>63<<63)
	}
	return out
}
