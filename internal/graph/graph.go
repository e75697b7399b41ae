// Package graph provides the network-analysis algorithms the paper's
// platform is built to enable (Section II dismisses SQL services precisely
// because "they do not allow running network analysis algorithms
// efficiently"): a compact weighted-graph representation over news sources
// plus connected components, degree/strength statistics and PageRank
// centrality, all operating on the co-reporting matrix.
package graph

import (
	"fmt"
	"math"
	"sort"

	"gdeltmine/internal/matrix"
)

// Graph is an undirected weighted graph in CSR adjacency form.
type Graph struct {
	N      int
	AdjPtr []int64
	AdjTo  []int32
	AdjW   []float64
}

// FromSimilarity builds a graph from a symmetric similarity matrix, keeping
// edges with weight above threshold. The diagonal is ignored.
func FromSimilarity(sim *matrix.Dense, threshold float64) (*Graph, error) {
	if sim.Rows != sim.Cols {
		return nil, fmt.Errorf("graph: similarity matrix must be square, have %dx%d", sim.Rows, sim.Cols)
	}
	if !sim.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("graph: similarity matrix must be symmetric")
	}
	n := sim.Rows
	g := &Graph{N: n, AdjPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		row := sim.Row(i)
		for j, w := range row {
			if i != j && w > threshold {
				g.AdjTo = append(g.AdjTo, int32(j))
				g.AdjW = append(g.AdjW, w)
			}
		}
		g.AdjPtr[i+1] = int64(len(g.AdjTo))
	}
	return g, nil
}

// Neighbors returns node i's adjacency (aliases storage).
func (g *Graph) Neighbors(i int) ([]int32, []float64) {
	lo, hi := g.AdjPtr[i], g.AdjPtr[i+1]
	return g.AdjTo[lo:hi], g.AdjW[lo:hi]
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int { return len(g.AdjTo) / 2 }

// Degree returns node i's degree.
func (g *Graph) Degree(i int) int { return int(g.AdjPtr[i+1] - g.AdjPtr[i]) }

// Strength returns the sum of node i's edge weights.
func (g *Graph) Strength(i int) float64 {
	_, ws := g.Neighbors(i)
	var s float64
	for _, w := range ws {
		s += w
	}
	return s
}

// Components returns the connected components, largest first, each sorted
// ascending.
func (g *Graph) Components() [][]int {
	comp := make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	next := 0
	for s := 0; s < g.N; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tos, _ := g.Neighbors(int(v))
			for _, to := range tos {
				if comp[to] < 0 {
					comp[to] = next
					stack = append(stack, to)
				}
			}
		}
		next++
	}
	groups := make([][]int, next)
	for i, c := range comp {
		groups[c] = append(groups[c], i)
	}
	sort.Slice(groups, func(a, b int) bool {
		if len(groups[a]) != len(groups[b]) {
			return len(groups[a]) > len(groups[b])
		}
		return groups[a][0] < groups[b][0]
	})
	return groups
}

// PageRankOptions tunes the power iteration.
type PageRankOptions struct {
	// Damping is the teleport complement; zero means 0.85.
	Damping float64
	// MaxIters bounds the iteration; zero means 100.
	MaxIters int
	// Epsilon is the L1 convergence threshold; zero means 1e-9.
	Epsilon float64
}

// PageRank computes weighted PageRank centrality. The returned vector sums
// to 1; dangling nodes teleport uniformly.
func (g *Graph) PageRank(opt PageRankOptions) []float64 {
	if opt.Damping == 0 {
		opt.Damping = 0.85
	}
	if opt.MaxIters == 0 {
		opt.MaxIters = 100
	}
	if opt.Epsilon == 0 {
		opt.Epsilon = 1e-9
	}
	n := g.N
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	outW := make([]float64, n)
	for i := 0; i < n; i++ {
		rank[i] = 1 / float64(n)
		outW[i] = g.Strength(i)
	}
	for iter := 0; iter < opt.MaxIters; iter++ {
		base := (1 - opt.Damping) / float64(n)
		var dangling float64
		for i := 0; i < n; i++ {
			next[i] = base
			if outW[i] == 0 {
				dangling += rank[i]
			}
		}
		spread := opt.Damping * dangling / float64(n)
		for i := 0; i < n; i++ {
			next[i] += spread
		}
		for i := 0; i < n; i++ {
			if outW[i] == 0 {
				continue
			}
			share := opt.Damping * rank[i] / outW[i]
			tos, ws := g.Neighbors(i)
			for k, to := range tos {
				next[to] += share * ws[k]
			}
		}
		var delta float64
		for i := 0; i < n; i++ {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < opt.Epsilon {
			break
		}
	}
	return rank
}
