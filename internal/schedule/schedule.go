// Package schedule represents the output of the scheduling algorithms: an
// assignment of every task to a processor, a start time and a finish time
// (paper §2), together with validation, quality metrics and rendering.
package schedule

import (
	"fmt"
	"math"

	"flb/internal/graph"
	"flb/internal/machine"
)

// Unassigned marks a task that has not been scheduled yet.
const Unassigned = -1

// Schedule is a (partial or complete) schedule of a task graph on a system.
// Create with New and fill with Place; algorithms place every task exactly
// once and never retract a placement (all the paper's algorithms are
// non-backtracking and non-duplicating).
type Schedule struct {
	// Algorithm records which scheduler produced the schedule.
	Algorithm string

	g   *graph.Graph
	sys machine.System

	proc   []machine.Proc // per task; Unassigned if not placed
	start  []float64
	finish []float64

	// order[p] lists the tasks placed on processor p in placement order,
	// which for the algorithms here is also non-decreasing start order.
	order [][]int

	prt    []float64 // processor ready times
	placed int
	seq    []int // global placement order

	// Duplication (see duplication.go): extra copies per task.
	dups map[int][]Copy
}

// New returns an empty schedule for g on sys.
func New(g *graph.Graph, sys machine.System) *Schedule {
	if err := sys.Validate(); err != nil {
		panic(err)
	}
	n := g.NumTasks()
	s := &Schedule{
		g:      g,
		sys:    sys,
		proc:   make([]machine.Proc, n),
		start:  make([]float64, n),
		finish: make([]float64, n),
		order:  make([][]int, sys.P),
		prt:    make([]float64, sys.P),
	}
	for i := range s.proc {
		s.proc[i] = Unassigned
	}
	return s
}

// Reset re-targets s at g on sys and clears every placement, reusing the
// schedule's backing arrays. It is the allocation-free alternative to New
// for scheduler arenas that produce many schedules in sequence; after a
// Reset, any previously returned views (PlacementOrder, TasksOn) are
// invalid.
func (s *Schedule) Reset(g *graph.Graph, sys machine.System) {
	if err := sys.Validate(); err != nil {
		panic(err)
	}
	n := g.NumTasks()
	s.Algorithm = ""
	s.g = g
	s.sys = sys
	s.proc = growProc(s.proc, n)
	for i := range s.proc {
		s.proc[i] = Unassigned
	}
	s.start = growFloat(s.start, n)
	s.finish = growFloat(s.finish, n)
	clear(s.start)
	clear(s.finish)
	if cap(s.order) >= sys.P {
		s.order = s.order[:sys.P]
	} else {
		s.order = append(s.order[:cap(s.order)], make([][]int, sys.P-cap(s.order))...)
	}
	for p := range s.order {
		s.order[p] = s.order[p][:0]
	}
	s.prt = growFloat(s.prt, sys.P)
	clear(s.prt)
	s.placed = 0
	s.seq = s.seq[:0]
	s.dups = nil
}

// Release drops s's graph and system, keeping its backing arrays for the
// next Reset, so an idle arena's schedule pins nothing of its last
// problem. s must not be read until that Reset.
func (s *Schedule) Release() {
	s.g = nil
	s.sys = machine.System{}
}

func growProc(v []machine.Proc, n int) []machine.Proc {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]machine.Proc, n)
}

func growFloat(v []float64, n int) []float64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}

// Graph returns the scheduled task graph.
func (s *Schedule) Graph() *graph.Graph { return s.g }

// System returns the target system.
func (s *Schedule) System() machine.System { return s.sys }

// NumProcs returns P.
func (s *Schedule) NumProcs() int { return s.sys.P }

// Place schedules task t on processor p at start time st. It panics on
// double placement or an out-of-range processor — both are algorithm bugs,
// not user errors.
func (s *Schedule) Place(t int, p machine.Proc, st float64) {
	if s.proc[t] != Unassigned {
		panic(fmt.Sprintf("schedule: task %d placed twice", t))
	}
	if p < 0 || p >= s.sys.P {
		panic(fmt.Sprintf("schedule: processor %d out of range [0,%d)", p, s.sys.P))
	}
	s.proc[t] = p
	s.start[t] = st
	s.finish[t] = s.finishOn(t, p, st)
	s.order[p] = append(s.order[p], t)
	if s.finish[t] > s.prt[p] {
		s.prt[p] = s.finish[t]
	}
	s.seq = append(s.seq, t)
	s.placed++
}

// finishOn returns FT(t) for t started at st on p: st + w(t)/speed(p).
// Place and Record.Replay both compute finish times here, so a replay's
// are the recorded run's bit for bit.
func (s *Schedule) finishOn(t int, p machine.Proc, st float64) float64 {
	return st + s.sys.ExecTime(s.g.Comp(t), p)
}

// PlacementOrder returns the tasks in the order they were placed. The
// returned slice must not be modified. For the list schedulers in this
// module, placement order is a topological order of the graph.
func (s *Schedule) PlacementOrder() []int { return s.seq }

// Assigned reports whether task t has been placed.
func (s *Schedule) Assigned(t int) bool { return s.proc[t] != Unassigned }

// Complete reports whether every task has been placed.
func (s *Schedule) Complete() bool { return s.placed == s.g.NumTasks() }

// Proc returns PROC(t). Valid only when Assigned(t).
func (s *Schedule) Proc(t int) machine.Proc { return s.proc[t] }

// Start returns ST(t). Valid only when Assigned(t).
func (s *Schedule) Start(t int) float64 { return s.start[t] }

// Finish returns FT(t). Valid only when Assigned(t).
func (s *Schedule) Finish(t int) float64 { return s.finish[t] }

// PRT returns the processor ready time of p: the finish time of the last
// task scheduled on it (paper §2), 0 if p is empty.
func (s *Schedule) PRT(p machine.Proc) float64 { return s.prt[p] }

// SetPRTFloor raises processor p's ready time to at least v without
// placing a task. The online rescheduler uses it to seed a repair plan
// with the surviving processors' availability (crash time, or the finish
// of an in-flight task) before list-scheduling the unexecuted suffix.
func (s *Schedule) SetPRTFloor(p machine.Proc, v float64) {
	if v > s.prt[p] {
		s.prt[p] = v
	}
}

// MinPRTProc returns the processor becoming idle the earliest, breaking
// ties toward the smaller index.
func (s *Schedule) MinPRTProc() machine.Proc {
	best := 0
	for p := 1; p < s.sys.P; p++ {
		if s.prt[p] < s.prt[best] {
			best = p
		}
	}
	return best
}

// TasksOn returns the tasks placed on p in placement order. The returned
// slice must not be modified.
func (s *Schedule) TasksOn(p machine.Proc) []int { return s.order[p] }

// Makespan returns the parallel completion time Tpar = max PRT (paper §2).
func (s *Schedule) Makespan() float64 {
	var m float64
	for _, v := range s.prt {
		if v > m {
			m = v
		}
	}
	return m
}

// ArrivalTime returns the time at which the message carried by edge e is
// available on processor p, i.e. FT(e.From) plus the communication delay
// under the system's model. The producer must already be placed.
func (s *Schedule) ArrivalTime(e graph.Edge, p machine.Proc) float64 {
	return s.finish[e.From] + s.sys.CommCost(e.Comm, s.proc[e.From], p)
}

// DataReady returns EMT(t, p): the earliest time all of t's messages are
// available on processor p, assuming all predecessors are placed. For an
// entry task it is 0.
func (s *Schedule) DataReady(t int, p machine.Proc) float64 {
	var ready float64
	for _, ei := range s.g.PredEdges(t) {
		if a := s.ArrivalTime(s.g.Edge(int(ei)), p); a > ready {
			ready = a
		}
	}
	return ready
}

// EST returns max(EMT(t,p), PRT(p)): the estimated start time of ready
// task t when appended to processor p (paper §2).
func (s *Schedule) EST(t int, p machine.Proc) float64 {
	return math.Max(s.DataReady(t, p), s.prt[p])
}

// EFT returns EST(t,p) + w(t)/speed(p): the earliest finish time of ready
// task t when appended to processor p. On uniformly related machines this
// is the speed-aware selection key — a slow processor may offer the
// earliest *start* while a fast one offers the earliest *finish*. On
// homogeneous systems it is EST shifted by the constant w(t), so ranking
// processors by EFT degenerates to ranking by EST.
func (s *Schedule) EFT(t int, p machine.Proc) float64 {
	return s.EST(t, p) + s.sys.ExecTime(s.g.Comp(t), p)
}

// CloneFor returns a deep copy of s rebound to g and sys: the copy's
// placements, times and orders are s's, copied rather than recomputed,
// but its graph and system are the caller's, so downstream consumers
// (export, execution) read the caller's names, speeds and communication
// model. g must have the same task count as the cloned schedule and sys
// the same processor count.
func (s *Schedule) CloneFor(g *graph.Graph, sys machine.System) *Schedule {
	if g.NumTasks() != len(s.proc) {
		panic(fmt.Sprintf("schedule: CloneFor graph has %d tasks, schedule has %d", g.NumTasks(), len(s.proc)))
	}
	if sys.P != s.sys.P {
		panic(fmt.Sprintf("schedule: CloneFor system has P=%d, schedule has P=%d", sys.P, s.sys.P))
	}
	ns := s.Clone()
	ns.g = g
	ns.sys = sys
	return ns
}

// Clone returns a deep copy of the schedule (sharing the immutable graph).
// The copy's slices come from a few consolidated backing arrays rather
// than one allocation per field and per processor — the batch engine
// clones every arena schedule it hands out. The per-processor order
// slices are capacity-clipped, so appending to one (a further Place on
// the clone) reallocates it instead of clobbering its neighbor.
func (s *Schedule) Clone() *Schedule {
	n, np := len(s.proc), len(s.order)
	fbuf := make([]float64, 2*n+np)
	ns := &Schedule{
		Algorithm: s.Algorithm,
		g:         s.g,
		sys:       s.sys,
		proc:      append(make([]machine.Proc, 0, n), s.proc...),
		start:     fbuf[:n:n],
		finish:    fbuf[n : 2*n : 2*n],
		order:     make([][]int, np),
		prt:       fbuf[2*n:],
		placed:    s.placed,
		seq:       append(make([]int, 0, len(s.seq)), s.seq...),
	}
	copy(ns.start, s.start)
	copy(ns.finish, s.finish)
	copy(ns.prt, s.prt)
	total := 0
	for p := range s.order {
		total += len(s.order[p])
	}
	obuf := make([]int, 0, total)
	for p := range s.order {
		at := len(obuf)
		obuf = append(obuf, s.order[p]...)
		ns.order[p] = obuf[at:len(obuf):len(obuf)]
	}
	if s.dups != nil {
		ns.dups = make(map[int][]Copy, len(s.dups))
		for t, cs := range s.dups {
			ns.dups[t] = append([]Copy(nil), cs...)
		}
	}
	return ns
}
