package graph

// This file implements the classic level metrics used by the scheduling
// algorithms:
//
//   - bottom level  BL(t): comp(t) plus the longest comp+comm path from t to
//     any exit task (FLB and FCP tie-breaking; DSC and LLB priorities).
//   - top level     TL(t): longest comp+comm path from any entry task to t,
//     excluding comp(t) (DSC priorities).
//   - static level  SL(t): like BL but ignoring communication costs (DLS).
//   - ALAP(t): the latest possible start time, CP - BL(t) (MCP priorities).
//   - CriticalPath: the length of the longest comp+comm path, i.e. max BL
//     over entry tasks (equivalently max TL(t)+comp(t) over exits).
//
// All are computed in O(V + E) over a topological order.

// BottomLevels returns BL(t) for every task. The result is memoized until
// the graph structure or its weights change; the returned slice must not
// be modified.
func (g *Graph) BottomLevels() []float64 {
	if g.memoBL != nil {
		return g.memoBL
	}
	order, err := g.TopoOrder()
	if err != nil {
		panic(err) // callers must Validate first; a cycle is a caller bug
	}
	bl := make([]float64, len(g.tasks))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, ei := range g.succs(id) {
			e := g.edges[ei]
			if v := e.Comm + bl[e.To]; v > best {
				best = v
			}
		}
		bl[id] = g.tasks[id].Comp + best
	}
	g.memoBL = bl
	return bl
}

// TopLevels returns TL(t) for every task (not including comp(t)).
func (g *Graph) TopLevels() []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	tl := make([]float64, len(g.tasks))
	for _, id := range order {
		for _, ei := range g.succs(id) {
			e := g.edges[ei]
			if v := tl[id] + g.tasks[id].Comp + e.Comm; v > tl[e.To] {
				tl[e.To] = v
			}
		}
	}
	return tl
}

// StaticLevels returns SL(t): comp(t) plus the longest computation-only
// path from t to an exit task, ignoring communication.
func (g *Graph) StaticLevels() []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	sl := make([]float64, len(g.tasks))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, ei := range g.succs(id) {
			if v := sl[g.edges[ei].To]; v > best {
				best = v
			}
		}
		sl[id] = g.tasks[id].Comp + best
	}
	return sl
}

// CriticalPath returns the length of the longest comp+comm path in the
// graph (including both endpoint computations): the schedule length when
// every message is paid, and the basis of MCP's latest-possible-start-time
// priorities. It is not a lower bound on a schedule's makespan: messages
// between tasks on one processor are free, so co-locating a chain
// shortens it (the longest comp-only path is one on unit-speed processors).
func (g *Graph) CriticalPath() float64 {
	bl := g.BottomLevels()
	var cp float64
	for id := range g.tasks {
		if g.IsEntry(id) && bl[id] > cp {
			cp = bl[id]
		}
	}
	return cp
}

// ALAPTimes returns, for every task, the latest possible start time: the
// critical path length minus the task's bottom level (paper §3.1). Entry
// tasks on the critical path have ALAP 0.
func (g *Graph) ALAPTimes() []float64 {
	bl := g.BottomLevels()
	var cp float64
	for id := range g.tasks {
		if g.IsEntry(id) && bl[id] > cp {
			cp = bl[id]
		}
	}
	alap := make([]float64, len(g.tasks))
	for id := range g.tasks {
		alap[id] = cp - bl[id]
	}
	return alap
}
