// Package lc implements LC (Linear Clustering) [Kim & Browne 1988], an
// extension clustering baseline for the multi-step pipeline. LC
// repeatedly extracts the current critical (longest comp+comm) path from
// the not-yet-clustered subgraph and makes it one linear cluster, zeroing
// its internal edges; isolated leftovers become singleton clusters. Every
// cluster is a chain, so mapping it to one processor serializes exactly
// one path of the program.
package lc

import (
	"flb/internal/algo"
	"flb/internal/algo/cluster"
	"flb/internal/graph"
)

// Run clusters g by linear clustering.
func Run(g *graph.Graph) (*cluster.Clustering, error) {
	if g.NumTasks() == 0 {
		return nil, algo.ErrNoTasks
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.NumTasks()
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	assign := make([]int, n)
	for t := range assign {
		assign[t] = -1
	}
	nextCluster := 0
	remaining := n
	for remaining > 0 {
		// Longest comp+comm path over unclustered tasks: dynamic program
		// over the topological order, restricted to edges whose endpoints
		// are both unclustered.
		dist := make([]float64, n) // best path length ending *at* t (incl. comp)
		pred := make([]int, n)
		for t := range pred {
			pred[t] = -1
		}
		bestEnd, bestLen := -1, -1.0
		for _, t := range order {
			if assign[t] >= 0 {
				continue
			}
			dist[t] += g.Comp(t)
			if dist[t] > bestLen {
				bestEnd, bestLen = t, dist[t]
			}
			for _, ei := range g.SuccEdges(t) {
				e := g.Edge(int(ei))
				if assign[e.To] >= 0 {
					continue
				}
				if v := dist[t] + e.Comm; v > dist[e.To] {
					dist[e.To] = v
					pred[e.To] = t
				}
			}
		}
		// Walk the path back and make it one cluster.
		for t := bestEnd; t >= 0; t = pred[t] {
			assign[t] = nextCluster
			remaining--
		}
		nextCluster++
	}
	return cluster.FromAssignment(g, assign), nil
}
