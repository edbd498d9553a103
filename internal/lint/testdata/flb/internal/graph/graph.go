// Package graph mirrors the real CSR accessor package to exercise the
// required-marker rule: under the import path flb/internal/graph the
// analyzer demands //flb:hotpath on SuccEdges, PredEdges and Edge; the
// two unmarked methods below are findings reported on the package clause.
package graph // want `Graph.PredEdges must be marked //flb:hotpath` `Graph.Edge must be marked //flb:hotpath`

type Graph struct {
	adj []int
}

//flb:hotpath
func (g *Graph) SuccEdges(id int) []int { return g.adj[id:id] }

func (g *Graph) PredEdges(id int) []int { return g.adj[id:id] }

func (g *Graph) Edge(i int) int { return g.adj[i] }
