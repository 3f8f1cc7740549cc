// Package topology describes the interconnect shapes the paper's
// synchronization paradigms run over: the ring used by ring all-reduce
// (RAR), the 2D torus used by 2D-torus all-reduce (TAR), the star of a
// parameter server (PS), and a binary tree for tree all-reduce.
//
// A Topology enumerates workers and directed links; the collective layer
// decides the message schedule, and the netsim layer assigns per-link
// costs.
package topology

import "fmt"

// Kind enumerates the supported interconnect shapes.
type Kind int

// Supported topology kinds.
const (
	KindRing Kind = iota
	KindTorus
	KindStar
	KindTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRing:
		return "ring"
	case KindTorus:
		return "torus"
	case KindStar:
		return "star"
	case KindTree:
		return "tree"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Topology exposes the neighbor structure of an interconnect over n
// workers, identified by ranks 0..n-1.
type Topology interface {
	// Kind reports the shape.
	Kind() Kind
	// Size returns the number of workers.
	Size() int
	// Neighbors returns the ranks a worker may send to directly.
	Neighbors(rank int) []int
}

// Links enumerates every directed link of t as (from, to) pairs, in
// rank order and, per rank, in the order Neighbors reports. This is the
// edge set per-link cost overrides (netsim.Cluster.SetLinkCost) apply
// to: each pair is one direction of traffic, so asymmetric links fall
// out naturally.
func Links(t Topology) [][2]int {
	var out [][2]int
	for r := 0; r < t.Size(); r++ {
		for _, nb := range t.Neighbors(r) {
			out = append(out, [2]int{r, nb})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Ring

// Ring is a unidirectional ring: rank r sends to (r+1) mod n.
type Ring struct {
	n int
}

// NewRing constructs a ring over n ≥ 1 workers.
func NewRing(n int) *Ring {
	if n < 1 {
		panic("topology: ring needs n >= 1")
	}
	return &Ring{n: n}
}

// Kind implements Topology.
func (r *Ring) Kind() Kind { return KindRing }

// Size implements Topology.
func (r *Ring) Size() int { return r.n }

// Next returns the downstream neighbor of rank.
func (r *Ring) Next(rank int) int { return (rank + 1) % r.n }

// Prev returns the upstream neighbor of rank.
func (r *Ring) Prev(rank int) int { return (rank - 1 + r.n) % r.n }

// Neighbors implements Topology.
func (r *Ring) Neighbors(rank int) []int {
	r.check(rank)
	if r.n == 1 {
		return nil
	}
	return []int{r.Next(rank)}
}

func (r *Ring) check(rank int) {
	if rank < 0 || rank >= r.n {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, r.n))
	}
}

// AllRanks returns [0, 1, …, n−1]: the one group of a flat ring over n
// workers, in ring order.
func AllRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ---------------------------------------------------------------------------
// 2D torus

// Torus is a rows×cols 2D torus. Rank r lives at (r/cols, r%cols); each
// worker has ring links along its row and its column, which is the
// structure 2D-torus all-reduce (TAR) reduces over hierarchically.
type Torus struct {
	rows, cols int
}

// NewTorus constructs a rows×cols torus (both ≥ 1).
func NewTorus(rows, cols int) *Torus {
	if rows < 1 || cols < 1 {
		panic("topology: torus needs rows, cols >= 1")
	}
	return &Torus{rows: rows, cols: cols}
}

// SquareTorus builds the most balanced torus for n workers: the largest
// divisor pair (rows, cols) with rows ≤ cols. For a perfect square this
// is √n × √n.
func SquareTorus(n int) *Torus {
	if n < 1 {
		panic("topology: torus needs n >= 1")
	}
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return NewTorus(best, n/best)
}

// Kind implements Topology.
func (t *Torus) Kind() Kind { return KindTorus }

// Size implements Topology.
func (t *Torus) Size() int { return t.rows * t.cols }

// Rows returns the row count.
func (t *Torus) Rows() int { return t.rows }

// Cols returns the column count.
func (t *Torus) Cols() int { return t.cols }

// Coord maps a rank to its (row, col) coordinate.
func (t *Torus) Coord(rank int) (row, col int) {
	t.check(rank)
	return rank / t.cols, rank % t.cols
}

// Rank maps a (row, col) coordinate to a rank.
func (t *Torus) Rank(row, col int) int {
	return ((row%t.rows)+t.rows)%t.rows*t.cols + ((col%t.cols)+t.cols)%t.cols
}

// RowNext returns the next rank along the row ring.
func (t *Torus) RowNext(rank int) int {
	row, col := t.Coord(rank)
	return t.Rank(row, col+1)
}

// ColNext returns the next rank along the column ring.
func (t *Torus) ColNext(rank int) int {
	row, col := t.Coord(rank)
	return t.Rank(row+1, col)
}

// RowGroups returns the torus's rows as ring groups: group r lists row
// r's ranks in ring order. Together with ColGroups it is the phase
// structure of every hierarchical collective over the torus.
func (t *Torus) RowGroups() [][]int {
	groups := make([][]int, t.rows)
	for r := range groups {
		groups[r] = make([]int, t.cols)
		for c := range groups[r] {
			groups[r][c] = t.Rank(r, c)
		}
	}
	return groups
}

// ColGroups returns the torus's columns as ring groups: group c lists
// column c's ranks in ring order.
func (t *Torus) ColGroups() [][]int {
	groups := make([][]int, t.cols)
	for c := range groups {
		groups[c] = make([]int, t.rows)
		for r := range groups[c] {
			groups[c][r] = t.Rank(r, c)
		}
	}
	return groups
}

// Neighbors implements Topology.
func (t *Torus) Neighbors(rank int) []int {
	t.check(rank)
	seen := map[int]bool{rank: true}
	var out []int
	for _, nb := range []int{t.RowNext(rank), t.ColNext(rank)} {
		if !seen[nb] {
			seen[nb] = true
			out = append(out, nb)
		}
	}
	return out
}

func (t *Torus) check(rank int) {
	if rank < 0 || rank >= t.Size() {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, t.Size()))
	}
}

// ---------------------------------------------------------------------------
// Star (parameter server)

// Star is the PS topology: rank 0 is the server; every other worker has
// a bidirectional link to it.
type Star struct {
	n int
}

// NewStar constructs a star over n ≥ 1 nodes (rank 0 = server).
func NewStar(n int) *Star {
	if n < 1 {
		panic("topology: star needs n >= 1")
	}
	return &Star{n: n}
}

// Kind implements Topology.
func (s *Star) Kind() Kind { return KindStar }

// Size implements Topology.
func (s *Star) Size() int { return s.n }

// Server returns the hub rank.
func (s *Star) Server() int { return 0 }

// Neighbors implements Topology.
func (s *Star) Neighbors(rank int) []int {
	if rank < 0 || rank >= s.n {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, s.n))
	}
	if rank == 0 {
		out := make([]int, 0, s.n-1)
		for i := 1; i < s.n; i++ {
			out = append(out, i)
		}
		return out
	}
	return []int{0}
}

// ---------------------------------------------------------------------------
// Binary tree

// Tree is a complete binary tree rooted at rank 0 (children of r are
// 2r+1 and 2r+2), used by tree all-reduce.
type Tree struct {
	n int
}

// NewTree constructs a binary tree over n ≥ 1 workers.
func NewTree(n int) *Tree {
	if n < 1 {
		panic("topology: tree needs n >= 1")
	}
	return &Tree{n: n}
}

// Kind implements Topology.
func (t *Tree) Kind() Kind { return KindTree }

// Size implements Topology.
func (t *Tree) Size() int { return t.n }

// Parent returns the parent rank, or -1 for the root.
func (t *Tree) Parent(rank int) int {
	t.check(rank)
	if rank == 0 {
		return -1
	}
	return (rank - 1) / 2
}

// Children returns the existing children of rank.
func (t *Tree) Children(rank int) []int {
	t.check(rank)
	var out []int
	for _, c := range []int{2*rank + 1, 2*rank + 2} {
		if c < t.n {
			out = append(out, c)
		}
	}
	return out
}

// Depth returns the number of edges from rank to the root.
func (t *Tree) Depth(rank int) int {
	t.check(rank)
	d := 0
	for rank != 0 {
		rank = (rank - 1) / 2
		d++
	}
	return d
}

// Neighbors implements Topology.
func (t *Tree) Neighbors(rank int) []int {
	out := t.Children(rank)
	if p := t.Parent(rank); p >= 0 {
		out = append(out, p)
	}
	return out
}

func (t *Tree) check(rank int) {
	if rank < 0 || rank >= t.n {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, t.n))
	}
}
