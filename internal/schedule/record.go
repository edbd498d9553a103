package schedule

import (
	"fmt"
	"math"

	"flb/internal/graph"
	"flb/internal/machine"
)

// Step is one placement of a Record: task Task started on processor Proc
// at time Start. Task and processor ids fit in 32 bits (the CSR caps task
// ids below 2³², and Recordable caps P), so a step is 16 bytes.
type Step struct {
	Task  uint32
	Proc  uint32
	Start float64
}

// StepBytes is the size of one Step, the per-task cost of a Record.
const StepBytes = 16

// Record is a complete schedule's answer without its problem: the
// (task, processor, start) triples in placement order, the algorithm
// label and P. It holds no graph and no system, so keeping one pins
// nothing of the submitted problem, and it costs StepBytes per task.
//
// Replay rebuilds the schedule on a caller's graph and system as Place
// would, step by step in order. Every other field — finish times,
// per-processor orders, processor ready times and placement order —
// follows from the start time, the task's computation cost and the
// processor's speed, so a replay on a problem with the same weights and
// speeds as the recorded one is bit-identical to the recorded schedule.
//
// The zero Record is empty and ready to Fill. Fill reuses its storage.
type Record struct {
	// Algorithm is the recorded schedule's label.
	Algorithm string

	procs int
	steps []Step
}

// Recordable reports whether Fill accepts s: every task placed, no
// duplicated copies, and P within 32 bits.
func Recordable(s *Schedule) bool {
	return s.Complete() && !s.HasDuplicates() && uint64(s.sys.P) <= math.MaxUint32
}

// Fill overwrites r with s's placements, reusing r's storage when it is
// at least as large as s and at most twice as large (a larger arena is
// dropped, so a record's memory follows the answer it holds). It panics
// when s is not Recordable.
func (r *Record) Fill(s *Schedule) {
	if !Recordable(s) {
		panic(fmt.Sprintf("schedule: Fill of an unrecordable schedule (%d of %d tasks placed, P=%d)", s.placed, len(s.proc), s.sys.P))
	}
	n := len(s.seq)
	if cap(r.steps) < n || cap(r.steps) > 2*n {
		r.steps = make([]Step, n)
	}
	r.steps = r.steps[:n]
	for i, t := range s.seq {
		r.steps[i] = Step{Task: uint32(t), Proc: uint32(s.proc[t]), Start: s.start[t]}
	}
	r.Algorithm = s.Algorithm
	r.procs = s.sys.P
}

// Len returns the number of recorded placements.
func (r *Record) Len() int { return len(r.steps) }

// NumProcs returns the recorded P.
func (r *Record) NumProcs() int { return r.procs }

// Step returns the i-th placement in placement order.
func (r *Record) Step(i int) Step { return r.steps[i] }

// Bytes returns the bytes held by r's placement storage (its capacity,
// not its length).
func (r *Record) Bytes() int { return cap(r.steps) * StepBytes }

// Fits reports whether r can answer a problem on g and sys: the same task
// count and the same P. Replay requires it.
func (r *Record) Fits(g *graph.Graph, sys machine.System) bool {
	return len(r.steps) == g.NumTasks() && r.procs == sys.P
}

// Replay returns a new schedule of g on sys holding r's placements,
// labeled with r's algorithm. r must Fit (g, sys). It does what Place
// does for each step in order — finish times from finishOn, per-processor
// orders, processor ready times, placement order — without Place's
// per-call checks, which a record of a complete schedule always passes.
// Like Clone, the result's slices come from a few consolidated backing
// arrays, with each processor's order capacity-clipped.
func (r *Record) Replay(g *graph.Graph, sys machine.System) *Schedule {
	if !r.Fits(g, sys) {
		panic(fmt.Sprintf("schedule: Replay of a %d-task P=%d record on %d tasks, P=%d", len(r.steps), r.procs, g.NumTasks(), sys.P))
	}
	n, np := len(r.steps), sys.P
	fbuf := make([]float64, 2*n+np)
	// proc, seq and the orders share one int array; its tail np ints
	// count each processor's tasks, then are dropped.
	ibuf := make([]int, 3*n+np)
	obuf, cnt := ibuf[2*n:3*n], ibuf[3*n:]
	for _, st := range r.steps {
		cnt[st.Proc]++
	}
	s := &Schedule{
		Algorithm: r.Algorithm,
		g:         g,
		sys:       sys,
		proc:      ibuf[:n:n],
		start:     fbuf[:n:n],
		finish:    fbuf[n : 2*n : 2*n],
		order:     make([][]int, np),
		prt:       fbuf[2*n:],
		placed:    n,
		seq:       ibuf[n : 2*n : 2*n],
	}
	at := 0
	for p := range s.order {
		s.order[p] = obuf[at:at:(at + cnt[p])]
		at += cnt[p]
	}
	proc, start, finish, prt, seq := s.proc, s.start, s.finish, s.prt, s.seq
	for i, st := range r.steps {
		t, p := int(st.Task), machine.Proc(st.Proc)
		f := s.finishOn(t, p, st.Start)
		proc[t], start[t], finish[t] = p, st.Start, f
		s.order[p] = append(s.order[p], t)
		if f > prt[p] {
			prt[p] = f
		}
		seq[i] = t
	}
	return s
}
