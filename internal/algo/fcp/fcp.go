// Package fcp implements FCP (Fast Critical Path) scheduling
// [Rădulescu & van Gemund, ICS 1999] — the paper's reference [7] and FLB's
// direct predecessor, included in its Fig. 2/4 comparisons.
//
// FCP keeps the ready tasks in a priority queue ordered by a *static*
// priority (the bottom level: critical-path-first). At each iteration the
// highest-priority ready task is popped and, per the two-processor lemma
// FLB builds on, only two processors are examined: the task's enabling
// processor (where its last message originates, so that message's cost is
// zeroed) and the processor becoming idle the earliest. The task goes to
// whichever gives the smaller start time. Total cost O(V(log W + log P) + E).
//
// The difference from FLB is the *task* selection: FCP takes the
// statically most critical ready task, which need not be the one that can
// start the earliest; FLB provably selects the earliest-starting one.
package fcp

import (
	"math"
	"sync"

	"flb/internal/algo"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/pq"
	"flb/internal/schedule"
)

// FCP is the Fast Critical Path scheduler. The zero value is ready to use.
type FCP struct{}

// Name implements the Algorithm interface.
func (FCP) Name() string { return "FCP" }

// fcpState is the reusable scratch of one run: the two heaps and the
// ready tracker. Pooling it (like FLB's arena) removes the per-call
// allocations of the steady state.
type fcpState struct {
	readyQ pq.Heap
	procQ  pq.Heap
	rt     algo.ReadyTracker
}

var statePool = sync.Pool{New: func() any { return new(fcpState) }}

// reset re-targets the arena at a run over g on p processors, emptying the
// heaps and tracker while keeping their capacity.
func (st *fcpState) reset(g *graph.Graph, p int) {
	st.readyQ.Grow(g.NumTasks())
	st.procQ.Grow(p)
	st.rt.Reset(g)
}

// Schedule implements the Algorithm interface.
func (f FCP) Schedule(g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	if err := algo.CheckInputs(g, sys); err != nil {
		return nil, err
	}
	s := schedule.New(g, sys)
	s.Algorithm = f.Name()
	bl := g.BottomLevels()

	st := statePool.Get().(*fcpState)
	defer statePool.Put(st)
	st.reset(g, sys.P)
	readyQ := &st.readyQ // keyed by -BL: most critical first
	rt := &st.rt
	for _, t := range rt.Initial() {
		readyQ.Push(t, pq.Key{Primary: -bl[t]})
	}
	// Processors keyed by PRT: the head is the earliest-idle processor.
	procQ := &st.procQ
	for p := 0; p < sys.P; p++ {
		procQ.Push(p, pq.Key{Primary: 0})
	}

	for !s.Complete() {
		t, _, ok := readyQ.Pop()
		if !ok {
			panic("fcp: ready queue empty before all tasks scheduled")
		}
		// Candidate 1: the enabling processor (source of the last message).
		// Candidate 2: the earliest-idle processor.
		ep := enablingProc(g, s, sys, t)
		idleP, _, _ := procQ.Peek()
		p, est := idleP, s.EST(t, idleP)
		if ep >= 0 {
			if epEST := s.EST(t, ep); epEST < est {
				p, est = ep, epEST
			}
		}
		s.Place(t, p, est)
		procQ.Update(p, pq.Key{Primary: s.PRT(p)})
		for _, nt := range rt.Complete(t) {
			readyQ.Push(nt, pq.Key{Primary: -bl[nt]})
		}
	}
	return s, nil
}

// enablingProc returns the processor from which ready task t's last
// message arrives (-1 for entry tasks). Arrival ties break toward the
// smaller processor index, as in FLB.
func enablingProc(g *graph.Graph, s *schedule.Schedule, sys machine.System, t int) machine.Proc {
	ep := machine.Proc(-1)
	last := math.Inf(-1)
	for _, ei := range g.PredEdges(t) {
		e := g.Edge(int(ei))
		arrive := s.Finish(e.From) + sys.RemoteCost(e.Comm)
		p := s.Proc(e.From)
		//flb:exact arrival ties compare bit-identical finish+comm sums, as in FLB's classifyReady
		if arrive > last || (arrive == last && p < ep) {
			last, ep = arrive, p
		}
	}
	return ep
}
