package graph

import (
	"fmt"
	"math"
	"strings"
)

// This file provides workload characterization beyond the raw level
// metrics: the quantities one inspects when predicting how a graph will
// schedule (granularity, parallelism profile, degree statistics). They
// back the examples and the workload documentation; none are needed by
// the schedulers themselves.

// Granularity returns min over tasks of comp(t) divided by the largest
// communication cost adjacent to t — Gerasoulis & Yang's grain measure. A
// graph with granularity >= 1 is coarse-grained (computation dominates
// every communication); the paper's CCR knob moves this value. Returns
// +Inf for graphs without edges and 0 when some task with adjacent
// communication has zero cost.
func (g *Graph) Granularity() float64 {
	g.ensureAdj()
	grain := -1.0
	for id := range g.tasks {
		maxComm := 0.0
		for _, ei := range g.preds(id) {
			if c := g.edges[ei].Comm; c > maxComm {
				maxComm = c
			}
		}
		for _, ei := range g.succs(id) {
			if c := g.edges[ei].Comm; c > maxComm {
				maxComm = c
			}
		}
		if maxComm == 0 {
			continue // isolated or comm-free task: no constraint
		}
		v := g.tasks[id].Comp / maxComm
		if grain < 0 || v < grain {
			grain = v
		}
	}
	if grain < 0 {
		return math.Inf(1)
	}
	return grain
}

// ParallelismProfile returns, per longest-path layer, the number of tasks
// in that layer — the graph's available parallelism over (logical) time.
// Layer l holds the tasks whose longest entry path has l edges.
func (g *Graph) ParallelismProfile() []int {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	layer := make([]int, len(g.tasks))
	maxLayer := -1
	for _, id := range order {
		for _, ei := range g.succs(id) {
			to := g.edges[ei].To
			if layer[id]+1 > layer[to] {
				layer[to] = layer[id] + 1
			}
		}
		if layer[id] > maxLayer {
			maxLayer = layer[id]
		}
	}
	if maxLayer < 0 {
		return nil
	}
	profile := make([]int, maxLayer+1)
	for _, l := range layer {
		profile[l]++
	}
	return profile
}

// AvgParallelism returns total computation divided by the comp+comm
// critical path: the speedup a schedule achieves if it pays every message
// on that path. It is not an upper bound on speedup, because co-located
// tasks exchange messages for free (see CriticalPath). Returns 0 for an
// empty graph.
func (g *Graph) AvgParallelism() float64 {
	if len(g.tasks) == 0 {
		return 0
	}
	cp := g.CriticalPath()
	if cp == 0 {
		return float64(len(g.tasks))
	}
	return g.TotalComp() / cp
}

// Stats summarizes a graph for reports.
type Stats struct {
	Name           string
	Tasks, Edges   int
	TotalComp      float64
	TotalComm      float64
	CCR            float64
	CriticalPath   float64
	Width          int // exact antichain width (expensive; see LayerWidth)
	LayerWidth     int
	AvgParallelism float64
	Granularity    float64
	MaxInDegree    int
	MaxOutDegree   int
}

// ComputeStats gathers Stats. exactWidth selects the Dilworth computation
// (O(V*E) with bitsets) over the cheap layer bound.
func (g *Graph) ComputeStats(exactWidth bool) Stats {
	st := Stats{
		Name:           g.Name,
		Tasks:          g.NumTasks(),
		Edges:          g.NumEdges(),
		TotalComp:      g.TotalComp(),
		TotalComm:      g.TotalComm(),
		CCR:            g.CCR(),
		LayerWidth:     g.LayerWidth(),
		AvgParallelism: g.AvgParallelism(),
		Granularity:    g.Granularity(),
	}
	if g.NumTasks() > 0 {
		st.CriticalPath = g.CriticalPath()
	}
	if exactWidth {
		st.Width = g.Width()
	} else {
		st.Width = st.LayerWidth
	}
	for id := 0; id < g.NumTasks(); id++ {
		if d := g.InDegree(id); d > st.MaxInDegree {
			st.MaxInDegree = d
		}
		if d := g.OutDegree(id); d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
	}
	return st
}

// String renders the stats as a small report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s: V=%d E=%d\n", s.Name, s.Tasks, s.Edges)
	fmt.Fprintf(&b, "  comp total %.4g, comm total %.4g, CCR %.3g, granularity %.3g\n",
		s.TotalComp, s.TotalComm, s.CCR, s.Granularity)
	fmt.Fprintf(&b, "  critical path %.4g, width %d (layer bound %d), avg parallelism %.2f\n",
		s.CriticalPath, s.Width, s.LayerWidth, s.AvgParallelism)
	fmt.Fprintf(&b, "  max in-degree %d, max out-degree %d\n", s.MaxInDegree, s.MaxOutDegree)
	return b.String()
}
