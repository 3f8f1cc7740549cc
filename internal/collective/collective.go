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

	"marsit/internal/compress"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/topology"
)

// compressEliasInts entropy-codes integer sign sums with Elias gamma.
func compressEliasInts(vals []int64) ([]byte, int) {
	return compress.EliasEncodeInts(vals)
}

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
		_, bits := compressEliasInts(vals)
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
// hubPushPull from the workers' clocks at push time: uplinks serialize
// on the hub NIC in rank order, then the hub streams the replies back,
// also in rank order. arrivals[w] is the simulated time worker w's
// reply lands. Shared with the concurrent engine's hub actor
// (internal/runtime), whose rank-0-hosted hub applies exactly this
// arithmetic to the clocks carried on the push packets.
func HubSchedule(model netsim.CostModel, clocks []float64, upBytes, downBytes []int) []float64 {
	beta := model.BytePeriod
	alpha := model.Latency

	// Ingress: arrivals serialize on the hub NIC in rank order.
	hub := 0.0
	for w := range clocks {
		arrive := clocks[w] + alpha
		if hub < arrive {
			hub = arrive
		}
		hub += float64(upBytes[w]) * beta
	}
	// Egress: hub sends replies in rank order (cut-through).
	sendStart := hub
	arrivals := make([]float64, len(clocks))
	for w := range clocks {
		arrivals[w] = sendStart + alpha + float64(downBytes[w])*beta
		sendStart += float64(downBytes[w]) * beta
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
// Full-precision ring all-reduce

// RingAllReduce performs full-precision ring all-reduce over all
// workers: a reduce-scatter pass (M−1 steps) followed by an all-gather
// pass (M−1 steps). On return every vector holds the element-wise mean.
func RingAllReduce(c *netsim.Cluster, vecs []tensor.Vec) {
	checkShape(c, vecs)
	groups := [][]int{topology.AllRanks(c.Size())}
	ringAllReduceGroups(c, vecs, groups, float32WireBytes)
	scaleAll(vecs, 1/float64(c.Size()))
	c.Barrier()
}

func scaleAll(vecs []tensor.Vec, alpha float64) {
	for _, v := range vecs {
		tensor.Scale(v, alpha)
	}
}

// ringAllReduceGroups runs the classic ring all-reduce *sum* within each
// group simultaneously (groups must be disjoint). Vectors end holding
// the group-wise sum. elemBytes sets the wire width per element.
func ringAllReduceGroups(c *netsim.Cluster, vecs []tensor.Vec, groups [][]int, elemBytes int) {
	d := len(vecs[0])
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		reduceScatterGather(c, vecs, g, d, elemBytes)
	}
}

// reduceScatterGather implements sum-all-reduce within the ranks of
// group (a logical ring in the given order).
func reduceScatterGather(c *netsim.Cluster, vecs []tensor.Vec, group []int, d, elemBytes int) {
	m := len(group)
	segs := tensor.Partition(d, m)
	pos := func(i int) int { return ((i % m) + m) % m }

	// Reduce-scatter: at step s, ring position p sends segment (p−s) mod m
	// downstream and accumulates the segment (p−s−1) mod m it receives.
	for s := 0; s < m-1; s++ {
		msgs := make([]netsim.Message, 0, m)
		// Snapshot outgoing segments before mutation.
		outgoing := make([]tensor.Vec, m)
		for p := 0; p < m; p++ {
			seg := segs[pos(p-s)]
			outgoing[p] = tensor.Clone(seg.Of(vecs[group[p]]))
			msgs = append(msgs, netsim.Message{
				From:  group[p],
				To:    group[pos(p+1)],
				Bytes: seg.Len() * elemBytes,
			})
		}
		c.Exchange(msgs)
		for p := 0; p < m; p++ {
			recvSeg := segs[pos(p-s-1)]
			tensor.Add(recvSeg.Of(vecs[group[p]]), outgoing[pos(p-1)])
		}
	}

	// All-gather: at step s, position p sends its freshest segment
	// (p+1−s) mod m; the receiver overwrites.
	for s := 0; s < m-1; s++ {
		msgs := make([]netsim.Message, 0, m)
		outgoing := make([]tensor.Vec, m)
		for p := 0; p < m; p++ {
			seg := segs[pos(p+1-s)]
			outgoing[p] = tensor.Clone(seg.Of(vecs[group[p]]))
			msgs = append(msgs, netsim.Message{
				From:  group[p],
				To:    group[pos(p+1)],
				Bytes: seg.Len() * elemBytes,
			})
		}
		c.Exchange(msgs)
		for p := 0; p < m; p++ {
			seg := segs[pos(p-s)]
			copy(seg.Of(vecs[group[p]]), outgoing[pos(p-1)])
		}
	}
}

// ---------------------------------------------------------------------------
// Full-precision 2D-torus all-reduce

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
// faster (Figure 5). On return every vector holds the element-wise
// mean. The torus size must equal the cluster size.
func TorusAllReduce(c *netsim.Cluster, tor *topology.Torus, vecs []tensor.Vec) {
	d := checkShape(c, vecs)
	if tor.Size() != c.Size() {
		panic("collective: torus size mismatch")
	}
	rows, cols := tor.Rows(), tor.Cols()
	if cols == 1 {
		ringAllReduceGroups(c, vecs, tor.ColGroups(), float32WireBytes)
		scaleAll(vecs, 1/float64(c.Size()))
		c.Barrier()
		return
	}
	rowSegs := tensor.Partition(d, cols)
	pos := func(i, m int) int { return ((i % m) + m) % m }

	// Phase 1: row reduce-scatter.
	for s := 0; s < cols-1; s++ {
		var msgs []netsim.Message
		type pend struct {
			dst, src int
			seg      tensor.Segment
			vals     tensor.Vec
		}
		var pends []pend
		for r := 0; r < rows; r++ {
			for p := 0; p < cols; p++ {
				self := tor.Rank(r, p)
				next := tor.Rank(r, p+1)
				seg := rowSegs[pos(p-s, cols)]
				msgs = append(msgs, netsim.Message{From: self, To: next, Bytes: seg.Len() * float32WireBytes})
				recvSeg := rowSegs[pos(p-s, cols)]
				pends = append(pends, pend{dst: next, src: self, seg: recvSeg,
					vals: tensor.Clone(recvSeg.Of(vecs[self]))})
			}
		}
		c.Exchange(msgs)
		for _, pd := range pends {
			tensor.Add(pd.seg.Of(vecs[pd.dst]), pd.vals)
		}
	}
	// Worker (r, p) now owns row segment (p+1) mod cols.
	owned := func(p int) tensor.Segment { return rowSegs[pos(p+1, cols)] }

	// Phase 2: column all-reduce on the owned segment (itself a ring
	// reduce-scatter + all-gather over rows sub-segments).
	if rows > 1 {
		for p := 0; p < cols; p++ {
			seg := owned(p)
			sub := tensor.Partition(seg.Len(), rows)
			// Views into each column member's owned slice.
			colRanks := make([]int, rows)
			views := make([]tensor.Vec, rows)
			for r := 0; r < rows; r++ {
				colRanks[r] = tor.Rank(r, p)
				views[r] = seg.Of(vecs[colRanks[r]])
			}
			columnRingSum(c, colRanks, views, sub)
		}
	}

	// All members of a column now share the same globally summed owned
	// segment. Phase 3: row all-gather.
	for s := 0; s < cols-1; s++ {
		var msgs []netsim.Message
		type pend struct {
			dst  int
			seg  tensor.Segment
			vals tensor.Vec
		}
		var pends []pend
		for r := 0; r < rows; r++ {
			for p := 0; p < cols; p++ {
				self := tor.Rank(r, p)
				next := tor.Rank(r, p+1)
				seg := rowSegs[pos(p+1-s, cols)]
				msgs = append(msgs, netsim.Message{From: self, To: next, Bytes: seg.Len() * float32WireBytes})
				pends = append(pends, pend{dst: next, seg: seg, vals: tensor.Clone(seg.Of(vecs[self]))})
			}
		}
		c.Exchange(msgs)
		for _, pd := range pends {
			copy(pd.seg.Of(vecs[pd.dst]), pd.vals)
		}
	}
	scaleAll(vecs, 1/float64(c.Size()))
	c.Barrier()
}

// columnRingSum runs ring all-reduce (sum) over the views (one slice
// per rank in ranks), partitioned into sub. Afterwards every view
// holds the sum.
func columnRingSum(c *netsim.Cluster, ranks []int, views []tensor.Vec, sub []tensor.Segment) {
	m := len(ranks)
	pos := func(i int) int { return ((i % m) + m) % m }
	for s := 0; s < m-1; s++ {
		msgs := make([]netsim.Message, 0, m)
		outgoing := make([]tensor.Vec, m)
		for p := 0; p < m; p++ {
			seg := sub[pos(p-s)]
			outgoing[p] = tensor.Clone(seg.Of(views[p]))
			msgs = append(msgs, netsim.Message{From: ranks[p], To: ranks[pos(p+1)], Bytes: seg.Len() * float32WireBytes})
		}
		c.Exchange(msgs)
		for p := 0; p < m; p++ {
			seg := sub[pos(p-s-1)]
			tensor.Add(seg.Of(views[p]), outgoing[pos(p-1)])
		}
	}
	for s := 0; s < m-1; s++ {
		msgs := make([]netsim.Message, 0, m)
		outgoing := make([]tensor.Vec, m)
		for p := 0; p < m; p++ {
			seg := sub[pos(p+1-s)]
			outgoing[p] = tensor.Clone(seg.Of(views[p]))
			msgs = append(msgs, netsim.Message{From: ranks[p], To: ranks[pos(p+1)], Bytes: seg.Len() * float32WireBytes})
		}
		c.Exchange(msgs)
		for p := 0; p < m; p++ {
			seg := sub[pos(p-s)]
			copy(seg.Of(views[p]), outgoing[pos(p-1)])
		}
	}
}

// ---------------------------------------------------------------------------
// Full-precision tree all-reduce

// TreeAllReduce reduces up a binary tree to rank 0 and broadcasts the
// mean back down. On return every vector holds the element-wise mean.
func TreeAllReduce(c *netsim.Cluster, tr *topology.Tree, vecs []tensor.Vec) {
	d := checkShape(c, vecs)
	if tr.Size() != c.Size() {
		panic("collective: tree size mismatch")
	}
	n := c.Size()
	bytes := d * float32WireBytes

	maxDepth := 0
	for w := 0; w < n; w++ {
		if dep := tr.Depth(w); dep > maxDepth {
			maxDepth = dep
		}
	}
	// Reduce up, one level at a time (deepest first).
	for lvl := maxDepth; lvl >= 1; lvl-- {
		var msgs []netsim.Message
		var apply []struct{ parent, child int }
		for w := 0; w < n; w++ {
			if tr.Depth(w) == lvl {
				p := tr.Parent(w)
				msgs = append(msgs, netsim.Message{From: w, To: p, Bytes: bytes})
				apply = append(apply, struct{ parent, child int }{p, w})
			}
		}
		c.Exchange(msgs)
		for _, a := range apply {
			tensor.Add(vecs[a.parent], vecs[a.child])
		}
	}
	tensor.Scale(vecs[0], 1/float64(n))
	// Broadcast down.
	for lvl := 1; lvl <= maxDepth; lvl++ {
		var msgs []netsim.Message
		var apply []struct{ parent, child int }
		for w := 0; w < n; w++ {
			if tr.Depth(w) == lvl {
				p := tr.Parent(w)
				msgs = append(msgs, netsim.Message{From: p, To: w, Bytes: bytes})
				apply = append(apply, struct{ parent, child int }{p, w})
			}
		}
		c.Exchange(msgs)
		for _, a := range apply {
			copy(vecs[a.child], vecs[a.parent])
		}
	}
	c.Barrier()
}

// ---------------------------------------------------------------------------
// Parameter server (virtual hub)

// hubPushPull models a push–pull through a virtual parameter server:
// every worker uploads upBytes[w], the hub ingests them serially
// (single NIC), then replies downBytes[w] to each worker, serialized on
// the hub's egress. Returns nothing; clocks and byte counters advance.
// Both up and down traffic are accounted to the worker, since the hub
// is not a cluster member (cluster-wide totals then match the paper's
// 2·M·D accounting for PS).
func hubPushPull(c *netsim.Cluster, upBytes, downBytes []int) {
	n := c.Size()
	clocks := make([]float64, n)
	for w := 0; w < n; w++ {
		clocks[w] = c.Clock(w)
	}
	arrivals := HubSchedule(c.Model, clocks, upBytes, downBytes)
	for w := 0; w < n; w++ {
		c.AdvanceTransmit(w, arrivals[w])
		c.AccountBytes(w, upBytes[w]+downBytes[w])
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
	up := uniformBytes(n, DenseWireBytes(d))
	hubPushPull(c, up, up)
}

func uniformBytes(n, b int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = b
	}
	return out
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

// ssdmInto is the one SSDM loop under both element types: per element
// the sign of x, kept with probability 1/2 + |x|/(2·norm) and flipped
// otherwise, written as ±1.
func ssdmInto[T float64 | int64](dst []T, v tensor.Vec, r *rng.PCG) float64 {
	if len(dst) != len(v) {
		panic("collective: SSDM sign vector length mismatch")
	}
	norm := tensor.Norm2(v)
	for i, x := range v {
		pKeep := 0.5
		if norm > 0 {
			pKeep = 0.5 + math.Abs(x)/(2*norm)
		}
		// The sign of x (tensor.Sign: −1 iff x < 0) and the keep/flip
		// outcome are both coin tosses on gradient data, so they meet in
		// one bit instead of on two branches.
		var neg uint64
		if x < 0 {
			neg = 1
		}
		if !r.Bernoulli(pKeep) {
			neg ^= 1
		}
		dst[i] = 1 - 2*T(neg)
	}
	return norm
}

// HubPushPull exposes the virtual parameter-server exchange: every
// worker uploads upBytes[w] and receives downBytes[w], serialized on
// the hub NIC. See PSAllReduce for the congestion semantics.
func HubPushPull(c *netsim.Cluster, upBytes, downBytes []int) {
	hubPushPull(c, upBytes, downBytes)
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
// full ring (reduce-scatter + all-gather). signs[w] must hold ±1 per
// coordinate; scales[w] is the worker's scaling constant (ℓ2 norm for
// SSDM, ℓ1/D for signSGD), whose sum rides along each payload. The
// payload width grows with the number of aggregated workers — the
// "bit-length expansion" of Section 3.1 — up to ⌈log2 m⌉+1 bits per
// element, or the exact Elias-gamma size when useElias is set.
// It returns the consensus sums and the total scale.
func SignSumRing(c *netsim.Cluster, signs [][]float64, scales []float64, useElias bool) ([]int64, float64) {
	n := c.Size()
	if len(signs) != n || len(scales) != n {
		panic("collective: SignSumRing needs one sign vector and scale per worker")
	}
	d := len(signs[0])
	sums := make([][]int64, n)
	for w := 0; w < n; w++ {
		if len(signs[w]) != d {
			panic("collective: SignSumRing dim mismatch")
		}
		s := make([]int64, d)
		for i, sg := range signs[w] {
			if sg >= 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		sums[w] = s
	}
	totalScale := 0.0
	for _, sc := range scales {
		totalScale += sc
	}
	if n == 1 {
		return sums[0], totalScale
	}
	final := signSumGroups(c, sums, [][]int{topology.AllRanks(n)}, 1, useElias)
	return final, totalScale
}

// signSumGroups runs the integer-sum ring schedule within each disjoint
// group simultaneously and returns the consensus sums (identical across
// all workers once all groups cover everyone; the caller composes
// phases for hierarchical topologies). sums[w] is updated in place to
// the group-wide consensus for worker w.
func signSumGroups(c *netsim.Cluster, sums [][]int64, groups [][]int, baseCount int, useElias bool) []int64 {
	d := len(sums[0])
	segBytes := func(_ tensor.Segment, workers int, vals []int64) int {
		return SignSumSegBytes(workers, vals, useElias)
	}
	for _, g := range groups {
		m := len(g)
		if m < 2 {
			continue
		}
		segs := tensor.Partition(d, m)
		pos := func(i int) int { return ((i % m) + m) % m }
		// Reduce-scatter.
		for s := 0; s < m-1; s++ {
			msgs := make([]netsim.Message, 0, m)
			outgoing := make([][]int64, m)
			for p := 0; p < m; p++ {
				seg := segs[pos(p-s)]
				vals := append([]int64(nil), sums[g[p]][seg.Lo:seg.Hi]...)
				outgoing[p] = vals
				msgs = append(msgs, netsim.Message{
					From: g[p], To: g[pos(p+1)], Bytes: segBytes(seg, (s+1)*baseCount, vals),
				})
			}
			c.Exchange(msgs)
			for p := 0; p < m; p++ {
				in := outgoing[pos(p-1)]
				seg := segs[pos(p-s-1)]
				for i := seg.Lo; i < seg.Hi; i++ {
					sums[g[p]][i] += in[i-seg.Lo]
				}
			}
		}
		// Assemble the consensus for the group and all-gather it.
		final := make([]int64, d)
		for p := 0; p < m; p++ {
			seg := segs[pos(p+1)]
			copy(final[seg.Lo:seg.Hi], sums[g[p]][seg.Lo:seg.Hi])
		}
		for s := 0; s < m-1; s++ {
			msgs := make([]netsim.Message, 0, m)
			for p := 0; p < m; p++ {
				seg := segs[pos(p+1-s)]
				msgs = append(msgs, netsim.Message{
					From: g[p], To: g[pos(p+1)],
					Bytes: segBytes(seg, m*baseCount, final[seg.Lo:seg.Hi]),
				})
			}
			c.Exchange(msgs)
		}
		for p := 0; p < m; p++ {
			copy(sums[g[p]], final)
		}
	}
	return sums[0]
}

// SignSumTorus is SignSumRing over a 2D torus: row rings first, then
// column rings with accordingly wider payloads.
func SignSumTorus(c *netsim.Cluster, tor *topology.Torus, signs [][]float64, scales []float64, useElias bool) ([]int64, float64) {
	n := c.Size()
	if tor.Size() != n {
		panic("collective: torus size mismatch")
	}
	if len(signs) != n || len(scales) != n {
		panic("collective: SignSumTorus needs one sign vector and scale per worker")
	}
	d := len(signs[0])
	sums := make([][]int64, n)
	for w := 0; w < n; w++ {
		s := make([]int64, d)
		for i, sg := range signs[w] {
			if sg >= 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		sums[w] = s
	}
	totalScale := 0.0
	for _, sc := range scales {
		totalScale += sc
	}
	if n == 1 {
		return sums[0], totalScale
	}
	signSumGroups(c, sums, tor.RowGroups(), 1, useElias)
	final := signSumGroups(c, sums, tor.ColGroups(), tor.Cols(), useElias)
	return final, totalScale
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
	signs := make([][]float64, n)
	scales := make([]float64, n)
	for w := 0; w < n; w++ {
		signs[w], scales[w] = ssdmCompressSeg(vecs[w], rs[w])
		c.AddCompress(w, d)
	}
	finalSums, totalNorm := SignSumRing(c, signs, scales, useElias)
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
	oneBit := uniformBytes(n, SignWireBytes(d))
	hubPushPull(c, oneBit, oneBit)
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
	up := uniformBytes(n, SignWireBytes(d))
	down := uniformBytes(n, DenseWireBytes(d))
	hubPushPull(c, up, down)
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
