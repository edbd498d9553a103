package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrCycle is returned when a graph that should be acyclic contains a cycle.
var ErrCycle = errors.New("graph: cycle detected")

// TopoOrder returns a topological order of the task IDs (Kahn's algorithm,
// smallest-ID-first among simultaneously available tasks, so the order is
// deterministic). It returns ErrCycle if the graph has a cycle. The result
// is memoized until the graph structure changes; the returned slice must
// not be modified.
func (g *Graph) TopoOrder() ([]int, error) { return g.topoOrder(nil) }

// topoOrder is TopoOrder with indeg as its in-degree scratch when it has
// V entries, whatever they hold.
func (g *Graph) topoOrder(indeg []uint32) ([]int, error) {
	g.ensureAdj()
	if g.memoTopo != nil {
		return g.memoTopo, nil
	}
	n := len(g.tasks)
	if len(indeg) != n {
		indeg = make([]uint32, n) // the CSR bounds every degree by MaxCSR
	}
	for id := 0; id < n; id++ {
		indeg[id] = uint32(len(g.preds(id)))
	}
	// A FIFO queue keeps the order deterministic; entry tasks are seeded
	// in increasing ID order. Tasks leave the queue in the order they
	// enter it, so the order itself is the queue, read from head.
	order := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			order = append(order, id)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, ei := range g.succs(order[head]) {
			to := g.edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				order = append(order, to)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	g.memoTopo = order
	return order, nil
}

// Validate checks structural sanity: edge endpoints in range, non-negative
// weights, no self-loops, no duplicate edges, and acyclicity. It returns a
// descriptive error for the first violation found. A successful validation
// is memoized until the graph changes, so the per-Schedule CheckInputs of
// the algorithms costs nothing on a frozen, already-validated graph.
func (g *Graph) Validate() error {
	if g.validated.Load() {
		return nil
	}
	n := len(g.tasks)
	for i, e := range g.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("graph %q: edge %d (%d->%d) out of range [0,%d)", g.Name, i, e.From, e.To, n)
		}
		if e.From == e.To {
			return fmt.Errorf("graph %q: edge %d is a self-loop on task %d", g.Name, i, e.From)
		}
		if e.Comm < 0 || math.IsNaN(e.Comm) || math.IsInf(e.Comm, 0) {
			return fmt.Errorf("graph %q: edge %d (%d->%d) has non-finite or negative comm %v", g.Name, i, e.From, e.To, e.Comm)
		}
	}
	// Duplicate detection over the CSR predecessor windows: two parallel
	// edges u->v appear as two equal sources in v's window. seen marks
	// each source with the last task whose window held it, so one pass
	// finds the first task with a repeated source, in V 32-bit words
	// rather than the O(E) edge-set map this replaces (hundreds of
	// megabytes at 10^7 edges). Only that task's window is sorted, to name
	// its smallest repeated source.
	g.ensureAdj() // safe: endpoints verified in range above
	seen := make([]uint32, n)
	for id := 0; id < n; id++ {
		for _, ei := range g.preds(id) {
			u := g.edges[ei].From
			if seen[u] != uint32(id)+1 {
				seen[u] = uint32(id) + 1
				continue
			}
			var from []int
			for _, ei := range g.preds(id) {
				from = append(from, g.edges[ei].From)
			}
			sort.Ints(from)
			for k := 1; ; k++ {
				if from[k] == from[k-1] {
					return fmt.Errorf("graph %q: duplicate edge %d->%d", g.Name, from[k], id)
				}
			}
		}
	}
	for id, t := range g.tasks {
		if t.Comp < 0 || math.IsNaN(t.Comp) || math.IsInf(t.Comp, 0) {
			return fmt.Errorf("graph %q: task %d has non-finite or negative comp %v", g.Name, id, t.Comp)
		}
	}
	if _, err := g.topoOrder(seen); err != nil {
		return fmt.Errorf("graph %q: %w", g.Name, err)
	}
	g.validated.Store(true)
	return nil
}

// MustValidate panics when Validate fails. Intended for workload
// generators, whose output is a programming error if invalid.
func (g *Graph) MustValidate() {
	if err := g.Validate(); err != nil {
		panic(err)
	}
}
