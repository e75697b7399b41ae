package graph

import (
	"math"
	"testing"

	"gdeltmine/internal/matrix"
)

// twoTriangles builds a similarity matrix with two disjoint triangles
// {0,1,2} and {3,4,5} plus an isolated node 6.
func twoTriangles() *matrix.Dense {
	m := matrix.NewDense(7, 7)
	link := func(a, b int, w float64) {
		m.Set(a, b, w)
		m.Set(b, a, w)
	}
	link(0, 1, 1)
	link(1, 2, 1)
	link(0, 2, 1)
	link(3, 4, 0.5)
	link(4, 5, 0.5)
	link(3, 5, 0.5)
	return m
}

func TestFromSimilarity(t *testing.T) {
	g, err := FromSimilarity(twoTriangles(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 7 || g.Edges() != 6 {
		t.Fatalf("n=%d edges=%d", g.N, g.Edges())
	}
	if g.Degree(0) != 2 || g.Degree(6) != 0 {
		t.Fatalf("degrees %d %d", g.Degree(0), g.Degree(6))
	}
	if s := g.Strength(3); math.Abs(s-1.0) > 1e-12 {
		t.Fatalf("strength %v", s)
	}
	// Threshold filters the weaker triangle away.
	g2, err := FromSimilarity(twoTriangles(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Edges() != 3 {
		t.Fatalf("thresholded edges %d", g2.Edges())
	}
}

func TestFromSimilarityErrors(t *testing.T) {
	if _, err := FromSimilarity(matrix.NewDense(2, 3), 0); err == nil {
		t.Fatal("non-square accepted")
	}
	asym := matrix.NewDense(2, 2)
	asym.Set(0, 1, 1)
	if _, err := FromSimilarity(asym, 0); err == nil {
		t.Fatal("asymmetric accepted")
	}
}

func TestComponents(t *testing.T) {
	g, err := FromSimilarity(twoTriangles(), 0)
	if err != nil {
		t.Fatal(err)
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components %v", comps)
	}
	// Two triangles (size 3) then the isolated node.
	if len(comps[0]) != 3 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Fatalf("component sizes %v", comps)
	}
	if comps[2][0] != 6 {
		t.Fatalf("isolated node %v", comps[2])
	}
	// Sorted-first tiebreak: {0,1,2} before {3,4,5}.
	if comps[0][0] != 0 || comps[1][0] != 3 {
		t.Fatalf("component order %v", comps)
	}
}

func TestPageRankProperties(t *testing.T) {
	g, err := FromSimilarity(twoTriangles(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := g.PageRank(PageRankOptions{})
	var sum float64
	for _, v := range pr {
		if v <= 0 {
			t.Fatalf("non-positive rank %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %v", sum)
	}
	// Symmetric triangles: nodes within a triangle share the same rank.
	if math.Abs(pr[0]-pr[1]) > 1e-9 || math.Abs(pr[3]-pr[5]) > 1e-9 {
		t.Fatalf("asymmetric ranks %v", pr)
	}
	// The isolated node has the lowest rank.
	for i := 0; i < 6; i++ {
		if pr[6] >= pr[i] {
			t.Fatalf("isolated node outranks %d: %v", i, pr)
		}
	}
}

func TestPageRankHub(t *testing.T) {
	// Star graph: hub 0 connected to 1..5.
	m := matrix.NewDense(6, 6)
	for i := 1; i < 6; i++ {
		m.Set(0, i, 1)
		m.Set(i, 0, 1)
	}
	g, err := FromSimilarity(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := g.PageRank(PageRankOptions{})
	for i := 1; i < 6; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub not top-ranked: %v", pr)
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	g, err := FromSimilarity(matrix.NewDense(0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pr := g.PageRank(PageRankOptions{}); pr != nil {
		t.Fatalf("empty graph rank %v", pr)
	}
}
