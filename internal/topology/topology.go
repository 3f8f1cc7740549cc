// Package topology describes the interconnect shapes the paper's
// synchronization paradigms run over beyond the flat ring: the 2D torus
// used by 2D-torus all-reduce (TAR) and the binary tree of tree
// all-reduce. A flat ring over n workers is the one group AllRanks(n).
//
// The collective layer decides the message schedule over these shapes;
// the netsim layer charges every link the same α–β cost.
package topology

import "fmt"

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

// Size returns the number of workers.
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

func (t *Torus) check(rank int) {
	if rank < 0 || rank >= t.Size() {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, t.Size()))
	}
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

// Size returns the number of workers.
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

func (t *Tree) check(rank int) {
	if rank < 0 || rank >= t.n {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, t.n))
	}
}
