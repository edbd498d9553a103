// Package dup implements a duplication-based list scheduler in the spirit
// of DSH (Duplication Scheduling Heuristic) [Kruatrachue & Lewis 1988],
// the family the paper's §1 cites (DSH, BTDH, CPFD) but does not measure:
// "duplicating tasks results in better scheduling performance but
// significantly increases scheduling cost". This extension lets the
// repository demonstrate exactly that trade-off against FLB.
//
// The scheduler is critical-path list scheduling (ready tasks by bottom
// level). For every ready task it evaluates, on each processor, the start
// time achievable when the task's *direct* predecessors may be duplicated
// locally (greedily, most critical message first, while each duplicate
// strictly lowers the start); the processor with the lowest
// duplication-aware start wins and its duplication plan is committed.
// Duplicates are appended at the processor's ready time, so schedules stay
// simple per-processor sequences; deeper (ancestor) duplication as in full
// DSH/CPFD is intentionally out of scope.
package dup

import (
	"math"

	"flb/internal/algo"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/pq"
	"flb/internal/schedule"
)

// DSH is the duplication scheduler. The zero value duplicates without a
// depth limit; MaxDepth bounds the number of duplicates per placement.
type DSH struct {
	// MaxDepth limits how many predecessors may be duplicated for one task
	// placement; 0 means unlimited (bounded anyway by the in-degree).
	MaxDepth int
}

// Name implements the Algorithm interface.
func (DSH) Name() string { return "DSH" }

// dupPlan is one planned duplicate placement.
type dupPlan struct {
	task  int
	start float64
}

// Schedule implements the Algorithm interface.
func (d DSH) Schedule(g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	if err := algo.CheckInputs(g, sys); err != nil {
		return nil, err
	}
	s := schedule.New(g, sys)
	s.Algorithm = d.Name()
	bl := g.BottomLevels()
	rt := algo.NewReadyTracker(g)
	readyQ := pq.New(g.NumTasks())
	for _, t := range rt.Initial() {
		readyQ.Push(t, pq.Key{Primary: -bl[t]})
	}
	for !s.Complete() {
		t, _, ok := readyQ.Pop()
		if !ok {
			panic("dup: ready queue empty before all tasks scheduled")
		}
		bestP, bestEST := machine.Proc(0), math.Inf(1)
		var bestPlan []dupPlan
		for p := 0; p < sys.P; p++ {
			est, plan := d.planOn(g, s, t, p)
			if est < bestEST {
				bestP, bestEST, bestPlan = p, est, plan
			}
		}
		for _, dp := range bestPlan {
			s.PlaceCopy(dp.task, bestP, dp.start)
		}
		s.Place(t, bestP, bestEST)
		for _, nt := range rt.Complete(t) {
			readyQ.Push(nt, pq.Key{Primary: -bl[nt]})
		}
	}
	return s, nil
}

// planOn computes the duplication-aware earliest start of ready task t on
// processor p together with the duplicate placements achieving it. The
// schedule is not modified; the plan overlays hypothetical local copies.
func (d DSH) planOn(g *graph.Graph, s *schedule.Schedule, t int, p machine.Proc) (float64, []dupPlan) {
	prt := s.PRT(p)
	localFinish := map[int]float64{} // hypothetical local copies

	// arrival of pred w's message on p under the overlay.
	arrival := func(e graph.Edge) float64 {
		a := s.BestArrival(e, p)
		if lf, ok := localFinish[e.From]; ok && lf < a {
			a = lf
		}
		return a
	}
	dataReady := func() float64 {
		var r float64
		for _, ei := range g.PredEdges(t) {
			if a := arrival(g.Edge(int(ei))); a > r {
				r = a
			}
		}
		return r
	}
	// isLocal reports whether w already executes on p (committed copy or
	// overlay), making its message free and un-improvable.
	isLocal := func(w int) bool {
		if _, ok := localFinish[w]; ok {
			return true
		}
		for _, c := range s.Copies(w) {
			if c.Proc == p {
				return true
			}
		}
		return false
	}

	var plan []dupPlan
	for d.MaxDepth == 0 || len(plan) < d.MaxDepth {
		est := math.Max(dataReady(), prt)
		if prt >= est {
			break // start dictated by processor availability, not messages
		}
		// Critical parent: the predecessor whose message arrives last.
		parent, parentArrival := -1, -1.0
		for _, ei := range g.PredEdges(t) {
			e := g.Edge(int(ei))
			if a := arrival(e); a > parentArrival {
				parentArrival, parent = a, e.From
			}
		}
		if parent < 0 || isLocal(parent) {
			break
		}
		// The duplicate runs at the overlay's processor ready time, fed by
		// the best *committed* copies of its own predecessors (direct
		// predecessors only — no recursive duplication).
		dupStart := math.Max(s.DataReadyDup(parent, p), prt)
		dupFinish := dupStart + g.Comp(parent)
		// Hypothetical new start for t with the local copy in place
		// (dupFinish is also the overlay's new processor ready time).
		localFinish[parent] = dupFinish
		newEST := math.Max(dataReady(), dupFinish)
		if newEST >= est {
			delete(localFinish, parent) // revert: duplication does not help
			break
		}
		plan = append(plan, dupPlan{task: parent, start: dupStart})
		prt = dupFinish
	}
	return math.Max(dataReady(), prt), plan
}
