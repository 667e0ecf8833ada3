package graph

import "lite/internal/workload"

// RefPageRank computes PageRank in plain Go for correctness checks.
func RefPageRank(g *workload.Graph, iterations int, damping float64) []float64 {
	n := g.NumVertices
	gt := g.Transpose()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1.0 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iterations; it++ {
		contrib := make([]float64, n)
		for v := 0; v < n; v++ {
			if d := g.OutDegree(v); d > 0 {
				contrib[v] = rank[v] / float64(d)
			}
		}
		for v := 0; v < n; v++ {
			var sum float64
			for _, u := range gt.OutNeighbors(v) {
				sum += contrib[u]
			}
			next[v] = base + damping*sum
		}
		rank, next = next, rank
	}
	return rank
}
