// Package optimal computes exact minimum-makespan schedules for *small*
// task graphs by branch and bound, as a ground-truth oracle: the heuristic
// algorithms' approximation quality can be measured against it, and no
// algorithm may ever beat it (a strong cross-check used by the tests).
//
// The search enumerates semi-active schedules: at each node one ready task
// is placed on one processor at its earliest feasible start. Every
// feasible schedule can be left-shifted into a semi-active one without
// increasing the makespan, so the search space contains an optimum. The
// bound combines the work bound (remaining computation spread over P) and
// the critical-path bound (placed finish time + computation-only bottom
// level). Complexity is exponential — keep V below ~12 and P small.
package optimal

import (
	"fmt"
	"math"

	"flb/internal/algo"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/schedule"
)

// Result of an exact search.
type Result struct {
	// Makespan is the optimal value (valid when Proven).
	Makespan float64
	// Schedule is one optimal schedule.
	Schedule *schedule.Schedule
	// Proven reports whether the search completed within the node budget;
	// when false, Makespan is only an upper bound.
	Proven bool
	// Nodes is the number of search nodes expanded.
	Nodes int
}

// Solve finds a minimum-makespan schedule of g on sys, expanding at most
// maxNodes search nodes (0 means 5e6). An initial upper bound is taken
// from a greedy schedule to prune early.
func Solve(g *graph.Graph, sys machine.System, maxNodes int) (*Result, error) {
	if err := algo.CheckInputs(g, sys); err != nil {
		return nil, err
	}
	if maxNodes == 0 {
		maxNodes = 5_000_000
	}
	n := g.NumTasks()
	slComp := g.StaticLevels() // computation-only bottom levels, for bounds
	totalComp := g.TotalComp()

	// Initial incumbent: greedy min-EST list schedule (cheap and decent).
	incumbent := greedy(g, sys)
	best := incumbent.Makespan()
	bestSched := incumbent

	s := schedule.New(g, sys)
	s.Algorithm = "optimal"
	pendingPreds := make([]int, n)
	for t := 0; t < n; t++ {
		pendingPreds[t] = g.InDegree(t)
	}
	placedComp := 0.0
	nodes := 0
	exhausted := false

	var dfs func(placed int)
	dfs = func(placed int) {
		if exhausted {
			return
		}
		nodes++
		if nodes > maxNodes {
			exhausted = true
			return
		}
		if placed == n {
			if mk := s.Makespan(); mk < best-1e-12 {
				best = mk
				bestSched = s.Clone()
				bestSched.Algorithm = "optimal"
			}
			return
		}
		// Work bound: placements only append, so every remaining unit of
		// computation extends some processor's ready time.
		var busy float64
		for q := 0; q < sys.P; q++ {
			busy += s.PRT(q)
		}
		if (busy+totalComp-placedComp)/float64(sys.P) >= best-1e-12 {
			return
		}
		for t := 0; t < n; t++ {
			if s.Assigned(t) || pendingPreds[t] != 0 {
				continue
			}
			// Processor symmetry: identical empty processors are
			// interchangeable; try only the first empty one.
			triedEmpty := false
			for p := 0; p < sys.P; p++ {
				if s.PRT(p) == 0 && len(s.TasksOn(p)) == 0 {
					if triedEmpty {
						continue
					}
					triedEmpty = true
				}
				est := s.EST(t, p)
				// Critical-path bound through (t, p): t's computation-only
				// bottom level must still fit under the incumbent.
				if est+slComp[t] >= best-1e-12 {
					continue
				}
				s.Place(t, p, est)
				placedComp += g.Comp(t)
				for _, ei := range g.SuccEdges(t) {
					pendingPreds[g.Edge(int(ei)).To]--
				}
				dfs(placed + 1)
				for _, ei := range g.SuccEdges(t) {
					pendingPreds[g.Edge(int(ei)).To]++
				}
				placedComp -= g.Comp(t)
				s = unplace(s, t)
				if exhausted {
					return
				}
			}
		}
	}
	dfs(0)
	return &Result{
		Makespan: best,
		Schedule: bestSched,
		Proven:   !exhausted,
		Nodes:    nodes,
	}, nil
}

// unplace removes the most recent placement of t by rebuilding the
// schedule without it. Schedule is append-only by design (the heuristics
// never backtrack), so the exact solver pays a rebuild instead.
func unplace(s *schedule.Schedule, t int) *schedule.Schedule {
	g := s.Graph()
	ns := schedule.New(g, s.System())
	ns.Algorithm = s.Algorithm
	for _, id := range s.PlacementOrder() {
		if id == t {
			continue
		}
		ns.Place(id, s.Proc(id), s.Start(id))
	}
	return ns
}

// greedy is the incumbent generator: min-EST over ready tasks (ETF-like,
// O(V^2 P) — fine at oracle sizes).
func greedy(g *graph.Graph, sys machine.System) *schedule.Schedule {
	s := schedule.New(g, sys)
	s.Algorithm = "greedy-incumbent"
	rt := algo.NewReadyTracker(g)
	ready := append([]int(nil), rt.Initial()...)
	for len(ready) > 0 {
		bi, bp, bEST := -1, -1, math.Inf(1)
		for i, t := range ready {
			for p := 0; p < sys.P; p++ {
				if est := s.EST(t, p); est < bEST {
					bi, bp, bEST = i, p, est
				}
			}
		}
		t := ready[bi]
		s.Place(t, bp, bEST)
		ready[bi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		ready = append(ready, rt.Complete(t)...)
	}
	return s
}

// String summarizes the result.
func (r *Result) String() string {
	status := "proven"
	if !r.Proven {
		status = "upper bound (node budget hit)"
	}
	return fmt.Sprintf("optimal makespan %g (%s, %d nodes)", r.Makespan, status, r.Nodes)
}
