package topology

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRingNextPrev(t *testing.T) {
	r := NewRing(4)
	if r.Next(3) != 0 || r.Prev(0) != 3 {
		t.Fatal("ring wraparound broken")
	}
	for i := 0; i < 4; i++ {
		if r.Prev(r.Next(i)) != i {
			t.Fatalf("Prev(Next(%d)) != %d", i, i)
		}
	}
	if r.Kind() != KindRing || r.Size() != 4 {
		t.Fatal("ring metadata")
	}
}

func TestRingNeighbors(t *testing.T) {
	r := NewRing(3)
	nb := r.Neighbors(2)
	if len(nb) != 1 || nb[0] != 0 {
		t.Fatalf("Neighbors(2) = %v", nb)
	}
	if NewRing(1).Neighbors(0) != nil {
		t.Fatal("singleton ring has no neighbors")
	}
}

func TestRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRing(0)
}

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

func TestTorusRingSteps(t *testing.T) {
	tr := NewTorus(2, 3)
	// Row ring at rank 2 (row 0, col 2) wraps to rank 0.
	if tr.RowNext(2) != 0 {
		t.Fatalf("RowNext(2) = %d", tr.RowNext(2))
	}
	// Column ring at rank 4 (row 1, col 1) wraps to rank 1.
	if tr.ColNext(4) != 1 {
		t.Fatalf("ColNext(4) = %d", tr.ColNext(4))
	}
}

func TestTorusRowColClosure(t *testing.T) {
	tr := NewTorus(3, 5)
	// Following RowNext cols times returns to start.
	for rank := 0; rank < tr.Size(); rank++ {
		cur := rank
		for i := 0; i < tr.Cols(); i++ {
			cur = tr.RowNext(cur)
		}
		if cur != rank {
			t.Fatalf("row ring from %d not closed", rank)
		}
		cur = rank
		for i := 0; i < tr.Rows(); i++ {
			cur = tr.ColNext(cur)
		}
		if cur != rank {
			t.Fatalf("col ring from %d not closed", rank)
		}
	}
}

// TestTorusGroups pins the ring groups every hierarchical collective
// reduces over: rows and columns in ring order (group g's next rank is
// RowNext/ColNext of the previous one), and the flat ring's one group.
func TestTorusGroups(t *testing.T) {
	for _, tc := range []struct {
		rows, cols           int
		rowGroups, colGroups [][]int
	}{
		{2, 2, [][]int{{0, 1}, {2, 3}}, [][]int{{0, 2}, {1, 3}}},
		{2, 3, [][]int{{0, 1, 2}, {3, 4, 5}}, [][]int{{0, 3}, {1, 4}, {2, 5}}},
		{1, 4, [][]int{{0, 1, 2, 3}}, [][]int{{0}, {1}, {2}, {3}}},
	} {
		tr := NewTorus(tc.rows, tc.cols)
		if got := tr.RowGroups(); !reflect.DeepEqual(got, tc.rowGroups) {
			t.Fatalf("%dx%d RowGroups = %v, want %v", tc.rows, tc.cols, got, tc.rowGroups)
		}
		if got := tr.ColGroups(); !reflect.DeepEqual(got, tc.colGroups) {
			t.Fatalf("%dx%d ColGroups = %v, want %v", tc.rows, tc.cols, got, tc.colGroups)
		}
		for _, g := range tr.RowGroups() {
			for p, rank := range g {
				if next := g[(p+1)%len(g)]; tr.RowNext(rank) != next {
					t.Fatalf("%dx%d row group %v: RowNext(%d) = %d", tc.rows, tc.cols, g, rank, tr.RowNext(rank))
				}
			}
		}
		for _, g := range tr.ColGroups() {
			for p, rank := range g {
				if next := g[(p+1)%len(g)]; tr.ColNext(rank) != next {
					t.Fatalf("%dx%d col group %v: ColNext(%d) = %d", tc.rows, tc.cols, g, rank, tr.ColNext(rank))
				}
			}
		}
	}
	if got := AllRanks(4); !reflect.DeepEqual(got, NewTorus(1, 4).RowGroups()[0]) {
		t.Fatalf("AllRanks(4) = %v", got)
	}
}

func TestSquareTorusShapes(t *testing.T) {
	for _, tc := range []struct{ n, rows, cols int }{
		{16, 4, 4}, {12, 3, 4}, {7, 1, 7}, {1, 1, 1}, {64, 8, 8},
	} {
		tr := SquareTorus(tc.n)
		if tr.Rows() != tc.rows || tr.Cols() != tc.cols {
			t.Fatalf("SquareTorus(%d) = %dx%d, want %dx%d",
				tc.n, tr.Rows(), tr.Cols(), tc.rows, tc.cols)
		}
	}
}

func TestTorusNeighborsDedup(t *testing.T) {
	// 1x1 torus: self-loops must not appear.
	if nb := NewTorus(1, 1).Neighbors(0); len(nb) != 0 {
		t.Fatalf("1x1 neighbors: %v", nb)
	}
	// 1xN torus: row and column steps may coincide.
	nb := NewTorus(1, 2).Neighbors(0)
	if len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("1x2 neighbors: %v", nb)
	}
}

func TestStar(t *testing.T) {
	s := NewStar(4)
	if s.Server() != 0 || s.Kind() != KindStar {
		t.Fatal("star metadata")
	}
	if nb := s.Neighbors(0); len(nb) != 3 {
		t.Fatalf("server neighbors: %v", nb)
	}
	if nb := s.Neighbors(2); len(nb) != 1 || nb[0] != 0 {
		t.Fatalf("client neighbors: %v", nb)
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

func TestKindString(t *testing.T) {
	if KindRing.String() != "ring" || KindTorus.String() != "torus" ||
		KindStar.String() != "star" || KindTree.String() != "tree" {
		t.Fatal("Kind.String")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestTopologyInterfaceCompliance(t *testing.T) {
	for _, tp := range []Topology{NewRing(4), NewTorus(2, 2), NewStar(4), NewTree(4)} {
		if tp.Size() != 4 {
			t.Fatalf("%v size", tp.Kind())
		}
		for r := 0; r < 4; r++ {
			for _, nb := range tp.Neighbors(r) {
				if nb < 0 || nb >= 4 || nb == r {
					t.Fatalf("%v: bad neighbor %d of %d", tp.Kind(), nb, r)
				}
			}
		}
	}
}

func TestLinksEnumeratesDirectedEdges(t *testing.T) {
	// Ring: n forward edges, each rank exactly one.
	ring := Links(NewRing(3))
	want := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	if len(ring) != len(want) {
		t.Fatalf("ring links = %v", ring)
	}
	for i, l := range want {
		if ring[i] != l {
			t.Fatalf("ring link %d = %v, want %v", i, ring[i], l)
		}
	}

	// Star: rank 0 to every worker plus every worker back — both
	// directions of each spoke appear.
	star := Links(NewStar(3))
	if len(star) != 4 {
		t.Fatalf("star links = %v", star)
	}
	seen := map[[2]int]bool{}
	for _, l := range star {
		seen[l] = true
	}
	for _, l := range [][2]int{{0, 1}, {0, 2}, {1, 0}, {2, 0}} {
		if !seen[l] {
			t.Fatalf("star links missing %v: %v", l, star)
		}
	}

	// Degenerate single worker: no links.
	if got := Links(NewRing(1)); len(got) != 0 {
		t.Fatalf("M=1 ring links = %v", got)
	}
}
