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
func (g *Graph) TopoOrder() ([]int, error) {
	g.ensureAdj()
	if g.memoTopo != nil {
		return g.memoTopo, nil
	}
	n := len(g.tasks)
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(g.preds(id))
	}
	// A simple FIFO queue keeps the order deterministic; entry tasks are
	// seeded in increasing ID order.
	queue := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, ei := range g.succs(id) {
			to := g.edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
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
	// edges u->v appear as two equal sources in v's window. A small scratch
	// slice (grown to the maximum in-degree, not O(E) like the edge-set map
	// this replaces) is sorted per task; at 10^7 edges the map version
	// carried hundreds of megabytes of transient state.
	g.ensureAdj() // safe: endpoints verified in range above
	var scratch []int
	for id := 0; id < n; id++ {
		pe := g.preds(id)
		if len(pe) < 2 {
			continue
		}
		scratch = scratch[:0]
		for _, ei := range pe {
			scratch = append(scratch, g.edges[ei].From)
		}
		sort.Ints(scratch)
		for k := 1; k < len(scratch); k++ {
			if scratch[k] == scratch[k-1] {
				return fmt.Errorf("graph %q: duplicate edge %d->%d", g.Name, scratch[k], id)
			}
		}
	}
	for id, t := range g.tasks {
		if t.Comp < 0 || math.IsNaN(t.Comp) || math.IsInf(t.Comp, 0) {
			return fmt.Errorf("graph %q: task %d has non-finite or negative comp %v", g.Name, id, t.Comp)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
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
