// Package algo defines the common contract of the scheduling algorithms in
// this module and the machinery they share: input validation and ready-set
// tracking. The implementations live in internal/core (FLB, the paper's
// contribution) and the subpackages of this directory (the baselines the
// paper compares against); the name-based registry is in
// internal/algo/registry.
package algo

import (
	"errors"
	"fmt"

	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/schedule"
)

// Algorithm is a compile-time task scheduler for a bounded number of
// processors. Implementations must be deterministic for a fixed
// configuration (randomized tie-breaking takes an explicit seed) and must
// produce schedules that pass (*schedule.Schedule).Validate.
type Algorithm interface {
	// Name returns the algorithm's display name (e.g. "FLB", "ETF").
	Name() string
	// Schedule maps every task of g onto sys and returns the schedule.
	Schedule(g *graph.Graph, sys machine.System) (*schedule.Schedule, error)
}

// ErrNoTasks is returned when scheduling an empty graph. An empty schedule
// would be trivially valid, but every algorithm in the paper assumes at
// least one entry task; returning an explicit error keeps harness mistakes
// (an accidentally empty workload) visible.
var ErrNoTasks = errors.New("algo: task graph has no tasks")

// CheckInputs validates a scheduling request: a structurally valid DAG and
// a sane system. All algorithms call it first.
func CheckInputs(g *graph.Graph, sys machine.System) error {
	if err := sys.Validate(); err != nil {
		return err
	}
	if g.NumTasks() == 0 {
		return ErrNoTasks
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("algo: invalid task graph: %w", err)
	}
	return nil
}

// ReadyTracker tracks which tasks are ready (all parents scheduled) during
// list scheduling. It is shared by every algorithm in the module. The zero
// value is usable after Reset; scheduler arenas embed it by value and
// Reset it per run to avoid reallocation.
//
//flb:pooled embedded by value in scheduler arenas and Reset per run
type ReadyTracker struct {
	g       *graph.Graph
	pending []int // unscheduled predecessor count per task
	//flb:keep scratch truncated to length 0 at the top of every Complete; stale contents are never read
	newly []int // scratch reused by Complete
}

// NewReadyTracker returns a tracker for g. Initial returns the entry tasks.
func NewReadyTracker(g *graph.Graph) *ReadyTracker {
	rt := &ReadyTracker{}
	rt.Reset(g)
	return rt
}

// Grow pre-sizes the tracker's pending array for graphs of up to n
// tasks, so a later Reset at that scale allocates nothing.
func (rt *ReadyTracker) Grow(n int) {
	if cap(rt.pending) < n {
		p := make([]int, len(rt.pending), n)
		copy(p, rt.pending)
		rt.pending = p
	}
}

// Reset re-targets the tracker at g, reusing its backing arrays.
func (rt *ReadyTracker) Reset(g *graph.Graph) {
	rt.g = g
	n := g.NumTasks()
	if cap(rt.pending) >= n {
		rt.pending = rt.pending[:n]
	} else {
		rt.pending = make([]int, n)
	}
	for t := 0; t < n; t++ {
		rt.pending[t] = g.InDegree(t)
	}
}

// Initial returns the initially ready (entry) tasks in increasing ID order.
// The returned slice must not be modified.
func (rt *ReadyTracker) Initial() []int { return rt.g.EntryTasks() }

// Complete marks t as scheduled and returns the tasks that become ready as
// a consequence, in successor-edge order. The returned slice is reused by
// the next Complete call; callers must consume (or copy) it first.
//
//flb:hotpath
func (rt *ReadyTracker) Complete(t int) []int {
	rt.newly = rt.newly[:0]
	for _, ei := range rt.g.SuccEdges(t) {
		to := rt.g.Edge(int(ei)).To
		rt.pending[to]--
		if rt.pending[to] == 0 {
			rt.newly = append(rt.newly, to)
		}
		if rt.pending[to] < 0 {
			//flb:alloc-ok unreachable on validated DAGs; the message is built only when about to crash
			panic(fmt.Sprintf("algo: task %d completed more times than it has predecessors", to))
		}
	}
	return rt.newly
}

// BestProcessor returns the processor on which ready task t starts the
// earliest when appended after the processor's last task, together with
// that start time. Ties break toward the smaller processor index. This is
// the O(P) inner step of the classic list schedulers (MCP, ETF, DLS); FLB's
// entire point is avoiding this scan.
//
// On uniformly related machines (sys.Heterogeneous) the selection key
// becomes the earliest *finish* time EST + w(t)/speed(p) — an early start
// on a slow processor no longer implies an early finish — while the
// returned time stays the start time on the winning processor. With fewer
// than two distinct speeds the comparisons are the seed's EST comparisons,
// bit for bit.
func BestProcessor(s *schedule.Schedule, t int) (machine.Proc, float64) {
	if s.System().Heterogeneous() {
		bestP, bestEST := 0, s.EST(t, 0)
		bestEFT := bestEST + s.System().ExecTime(s.Graph().Comp(t), 0)
		for p := 1; p < s.NumProcs(); p++ {
			est := s.EST(t, p)
			if eft := est + s.System().ExecTime(s.Graph().Comp(t), p); eft < bestEFT {
				bestP, bestEST, bestEFT = p, est, eft
			}
		}
		return bestP, bestEST
	}
	bestP, bestEST := 0, s.EST(t, 0)
	for p := 1; p < s.NumProcs(); p++ {
		if est := s.EST(t, p); est < bestEST {
			bestP, bestEST = p, est
		}
	}
	return bestP, bestEST
}
