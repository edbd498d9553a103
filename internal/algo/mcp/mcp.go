// Package mcp implements MCP (Modified Critical Path) scheduling
// [Wu & Gajski, IEEE TPDS 1990], the strongest one-step baseline of the
// paper's evaluation (§3.1) and the normalization reference of its Fig. 4.
//
// Task priorities are latest-possible start times (ALAP = critical path −
// bottom level); the task with the smallest ALAP goes first and is placed
// on the processor where it starts the earliest. The paper uses the
// lower-cost variant that breaks priority ties randomly — O(V log V +
// (E+V)P) — which is this package's default; the original variant that
// compares descendant ALAP lists lexicographically and the insertion-based
// processor selection of the original formulation are provided as options.
package mcp

import (
	"math/rand"
	"sort"
	"sync"

	"flb/internal/algo"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/pq"
	"flb/internal/schedule"
)

// mcpState is the reusable per-run scratch: the priority queue of ready
// tasks and the ready tracker. The ALAP/rank arrays stay per-call (the
// random tie-break draws a fresh permutation from the configured seed).
type mcpState struct {
	readyQ pq.Heap
	rt     algo.ReadyTracker
}

var statePool = sync.Pool{New: func() any { return new(mcpState) }}

// reset re-targets the arena at g, emptying the ready queue and tracker
// while keeping their capacity.
func (st *mcpState) reset(g *graph.Graph) {
	st.readyQ.Grow(g.NumTasks())
	st.rt.Reset(g)
}

// release returns the arena to the pool, dropping the tracker's graph
// first so a pooled arena keeps no graph alive.
func (st *mcpState) release() {
	st.rt.Release()
	statePool.Put(st)
}

// TieBreak selects how MCP orders tasks with equal ALAP time.
type TieBreak int

const (
	// TieRandom breaks ties by a seeded random permutation — the paper's
	// selected low-cost variant (§3.1, §6).
	TieRandom TieBreak = iota
	// TieDescendants breaks ties by lexicographic comparison of the sorted
	// ALAP lists of each task's descendants — the original MCP rule.
	TieDescendants
)

// MCP is the Modified Critical Path scheduler. The zero value is the
// paper's configuration (random tie-breaking, seed 0, no insertion).
type MCP struct {
	// Tie selects the tie-breaking rule.
	Tie TieBreak
	// Seed drives TieRandom; fixed seed, fixed schedule.
	Seed int64
	// Insertion, when true, allows a task to be placed into an idle gap
	// between already-scheduled tasks instead of only after the last one —
	// the original MCP's processor selection.
	Insertion bool
}

// Name implements the Algorithm interface.
func (m MCP) Name() string {
	name := "MCP"
	if m.Tie == TieDescendants {
		name += "-desc"
	}
	if m.Insertion {
		name += "-ins"
	}
	return name
}

// Schedule implements the Algorithm interface.
func (m MCP) Schedule(g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	if err := algo.CheckInputs(g, sys); err != nil {
		return nil, err
	}
	s := schedule.New(g, sys)
	s.Algorithm = m.Name()
	alap := g.ALAPTimes()
	rank := m.tieRank(g, alap)

	// Tasks are consumed in (ALAP, rank) order restricted to ready tasks.
	// ALAP order is topological whenever computation costs are positive, so
	// the readiness filter usually never bites; it keeps zero-cost corner
	// cases correct.
	st := statePool.Get().(*mcpState)
	defer st.release()
	st.reset(g)
	readyQ := &st.readyQ
	rt := &st.rt
	for _, t := range rt.Initial() {
		readyQ.Push(t, pq.Key{Primary: alap[t], Secondary: rank[t]})
	}
	var gaps *gapTracker
	if m.Insertion {
		gaps = newGapTracker(sys.P)
	}
	for !s.Complete() {
		t, _, ok := readyQ.Pop()
		if !ok {
			panic("mcp: ready queue empty before all tasks scheduled")
		}
		var p machine.Proc
		var est float64
		if m.Insertion {
			p, est = gaps.best(s, t)
			gaps.occupy(p, est, est+g.Comp(t))
		} else {
			p, est = algo.BestProcessor(s, t)
		}
		s.Place(t, p, est)
		for _, nt := range rt.Complete(t) {
			readyQ.Push(nt, pq.Key{Primary: alap[nt], Secondary: rank[nt]})
		}
	}
	return s, nil
}

// tieRank returns a per-task secondary sort key implementing the selected
// tie-breaking rule.
func (m MCP) tieRank(g *graph.Graph, alap []float64) []float64 {
	n := g.NumTasks()
	rank := make([]float64, n)
	switch m.Tie {
	case TieRandom:
		rng := rand.New(rand.NewSource(m.Seed))
		perm := rng.Perm(n)
		for t, r := range perm {
			rank[t] = float64(r)
		}
	case TieDescendants:
		// Each task gets the sorted ALAP list of its descendants; tasks are
		// ranked by lexicographic comparison (smaller list first), the
		// original MCP rule.
		reach := g.Reachability()
		lists := make([][]float64, n)
		for t := 0; t < n; t++ {
			var l []float64
			tt := t
			reach[tt].ForEach(func(d int) { l = append(l, alap[d]) })
			sort.Float64s(l)
			lists[t] = l
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return lexLess(lists[order[a]], lists[order[b]])
		})
		for r, t := range order {
			rank[t] = float64(r)
		}
	}
	return rank
}

// lexLess orders two sorted ALAP lists lexicographically.
//
//flb:exact lexicographic comparator: equal elements must fall through to the next position exactly
func lexLess(a, b []float64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// gapTracker maintains, per processor, the sorted list of occupied
// intervals for insertion-based placement.
type gapTracker struct {
	intervals [][][2]float64 // per proc, sorted by start
}

func newGapTracker(p int) *gapTracker {
	return &gapTracker{intervals: make([][][2]float64, p)}
}

// best returns the processor and start time minimizing the insertion-based
// earliest start of ready task t: the first idle gap after the task's data
// arrival that fits its computation.
func (gt *gapTracker) best(s *schedule.Schedule, t int) (machine.Proc, float64) {
	comp := s.Graph().Comp(t)
	bestP, bestEST := 0, -1.0
	for p := 0; p < s.NumProcs(); p++ {
		est := gt.earliest(p, s.DataReady(t, p), comp)
		if bestEST < 0 || est < bestEST {
			bestP, bestEST = p, est
		}
	}
	return bestP, bestEST
}

// earliest returns the earliest start >= ready on processor p with room
// for comp time units.
func (gt *gapTracker) earliest(p machine.Proc, ready, comp float64) float64 {
	cur := ready
	for _, iv := range gt.intervals[p] {
		if cur+comp <= iv[0] {
			return cur // fits in the gap before this interval
		}
		if iv[1] > cur {
			cur = iv[1]
		}
	}
	return cur
}

// occupy records the interval [start, end) on p.
func (gt *gapTracker) occupy(p machine.Proc, start, end float64) {
	ivs := gt.intervals[p]
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i][0] >= start })
	ivs = append(ivs, [2]float64{})
	copy(ivs[i+1:], ivs[i:])
	ivs[i] = [2]float64{start, end}
	gt.intervals[p] = ivs
}
