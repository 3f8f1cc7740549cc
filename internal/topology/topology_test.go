package topology

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTorusCoordRankInverse(t *testing.T) {
	tr := NewTorus(3, 4)
	f := func(raw uint8) bool {
		rank := int(raw) % tr.Size()
		row, col := tr.Coord(rank)
		return tr.Rank(row, col) == rank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// step returns the rank dr rows and dc columns away from rank.
func step(tr *Torus, rank, dr, dc int) int {
	row, col := tr.Coord(rank)
	return tr.Rank(row+dr, col+dc)
}

func TestTorusRingSteps(t *testing.T) {
	tr := NewTorus(2, 3)
	// Row ring at rank 2 (row 0, col 2) wraps to rank 0.
	if got := step(tr, 2, 0, 1); got != 0 {
		t.Fatalf("row step from 2 = %d", got)
	}
	// Column ring at rank 4 (row 1, col 1) wraps to rank 1.
	if got := step(tr, 4, 1, 0); got != 1 {
		t.Fatalf("column step from 4 = %d", got)
	}
}

func TestTorusRowColClosure(t *testing.T) {
	tr := NewTorus(3, 5)
	// Stepping along a row cols times returns to start.
	for rank := 0; rank < tr.Size(); rank++ {
		cur := rank
		for i := 0; i < tr.Cols(); i++ {
			cur = step(tr, cur, 0, 1)
		}
		if cur != rank {
			t.Fatalf("row ring from %d not closed", rank)
		}
		cur = rank
		for i := 0; i < tr.Rows(); i++ {
			cur = step(tr, cur, 1, 0)
		}
		if cur != rank {
			t.Fatalf("col ring from %d not closed", rank)
		}
	}
}

// TestTorusGroups pins the ring groups every hierarchical collective
// reduces over: rows and columns in ring order (each member's next is
// one column or one row on, wrapping), and the flat ring's one group.
func TestTorusGroups(t *testing.T) {
	for _, tc := range []struct {
		rows, cols           int
		rowGroups, colGroups [][]int
	}{
		{2, 2, [][]int{{0, 1}, {2, 3}}, [][]int{{0, 2}, {1, 3}}},
		{2, 3, [][]int{{0, 1, 2}, {3, 4, 5}}, [][]int{{0, 3}, {1, 4}, {2, 5}}},
		{1, 4, [][]int{{0, 1, 2, 3}}, [][]int{{0}, {1}, {2}, {3}}},
		{1, 1, [][]int{{0}}, [][]int{{0}}},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.rows, tc.cols), func(t *testing.T) {
			tr := NewTorus(tc.rows, tc.cols)
			if got := tr.RowGroups(); !reflect.DeepEqual(got, tc.rowGroups) {
				t.Fatalf("%dx%d RowGroups = %v, want %v", tc.rows, tc.cols, got, tc.rowGroups)
			}
			if got := tr.ColGroups(); !reflect.DeepEqual(got, tc.colGroups) {
				t.Fatalf("%dx%d ColGroups = %v, want %v", tc.rows, tc.cols, got, tc.colGroups)
			}
			for _, g := range tr.RowGroups() {
				for p, rank := range g {
					if next := g[(p+1)%len(g)]; step(tr, rank, 0, 1) != next {
						t.Fatalf("%dx%d row group %v: next of %d = %d", tc.rows, tc.cols, g, rank, step(tr, rank, 0, 1))
					}
				}
			}
			for _, g := range tr.ColGroups() {
				for p, rank := range g {
					if next := g[(p+1)%len(g)]; step(tr, rank, 1, 0) != next {
						t.Fatalf("%dx%d col group %v: next of %d = %d", tc.rows, tc.cols, g, rank, step(tr, rank, 1, 0))
					}
				}
			}
		})
	}
}

func TestSquareTorusShapes(t *testing.T) {
	for _, tc := range []struct{ n, rows, cols int }{
		{16, 4, 4}, {12, 3, 4}, {7, 1, 7}, {1, 1, 1}, {64, 8, 8},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			tr := SquareTorus(tc.n)
			if tr.Rows() != tc.rows || tr.Cols() != tc.cols {
				t.Fatalf("SquareTorus(%d) = %dx%d, want %dx%d",
					tc.n, tr.Rows(), tr.Cols(), tc.rows, tc.cols)
			}
		})
	}
}

func TestTreeStructure(t *testing.T) {
	tr := NewTree(7)
	if tr.Parent(0) != -1 {
		t.Fatal("root parent")
	}
	if tr.Parent(5) != 2 || tr.Parent(6) != 2 {
		t.Fatal("parent of 5/6")
	}
	if c := tr.Children(1); len(c) != 2 || c[0] != 3 || c[1] != 4 {
		t.Fatalf("children of 1: %v", c)
	}
	if c := tr.Children(3); len(c) != 0 {
		t.Fatalf("leaf children: %v", c)
	}
	if tr.Depth(0) != 0 || tr.Depth(6) != 2 {
		t.Fatal("depth")
	}
}

func TestTreePartial(t *testing.T) {
	tr := NewTree(4) // ranks 0..3; node 1 has only child 3
	if c := tr.Children(1); len(c) != 1 || c[0] != 3 {
		t.Fatalf("children of 1 in tree(4): %v", c)
	}
}

func TestTreeParentChildConsistency(t *testing.T) {
	tr := NewTree(20)
	for r := 1; r < 20; r++ {
		p := tr.Parent(r)
		found := false
		for _, c := range tr.Children(p) {
			if c == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d missing from children of its parent %d", r, p)
		}
	}
}

// TestTreeSubtreeSizes checks SubtreeSizes against a brute-force count:
// the subtree of rank r holds every rank whose chain of parents passes
// through r, r itself included.
func TestTreeSubtreeSizes(t *testing.T) {
	for n := 1; n <= 64; n++ {
		tr := NewTree(n)
		got := tr.SubtreeSizes()
		if len(got) != n {
			t.Fatalf("n=%d: %d sizes", n, len(got))
		}
		for r := 0; r < n; r++ {
			want := 0
			for w := 0; w < n; w++ {
				for a := w; a >= 0; a = tr.Parent(a) {
					if a == r {
						want++
						break
					}
				}
			}
			if got[r] != want {
				t.Fatalf("n=%d: subtree of rank %d has %d ranks, want %d", n, r, got[r], want)
			}
		}
	}
}
