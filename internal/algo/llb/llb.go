// Package llb implements LLB (List-based Load Balancing)
// [Rădulescu, van Gemund & Lin, IPPS/SPDP 1999], the second step of the
// paper's multi-step baseline DSC-LLB (§3.3): it maps the clusters
// produced by DSC onto the P physical processors and orders the tasks.
//
// LLB is a load-balancing scheme. At each iteration the destination
// processor is the one becoming idle the earliest; the task is the better
// (earliest-starting) of two candidates: the most critical ready task
// already mapped to that processor (a task of a cluster previously placed
// there) and the most critical ready task of a still-unmapped cluster.
// Scheduling a task of an unmapped cluster maps the whole cluster to the
// processor, preserving DSC's communication-zeroing decisions. Cost
// O(C log C + V log W) for C clusters.
//
// Candidate priority is the bottom level, most critical first (the §3.3
// wording says "least bottom level"; see DESIGN.md §5 for why we follow
// the LLB reference's critical-first rule — the comparator is exposed for
// experimentation).
package llb

import (
	"flb/internal/algo"
	"flb/internal/algo/cluster"
	"flb/internal/machine"
	"flb/internal/pq"
	"flb/internal/schedule"
)

// CandidateOrder selects how LLB prioritizes candidate tasks.
type CandidateOrder int

const (
	// LargestBL picks the candidate with the largest bottom level
	// (critical-first; the default).
	LargestBL CandidateOrder = iota
	// SmallestBL picks the candidate with the smallest bottom level — the
	// literal reading of the paper's §3.3.
	SmallestBL
)

// LLB maps a clustering onto P processors.
type LLB struct {
	// Order selects the candidate priority; default LargestBL.
	Order CandidateOrder
}

// Name identifies the algorithm.
func (LLB) Name() string { return "LLB" }

// Schedule maps clustering c of graph g onto sys.
func (l LLB) Schedule(c *cluster.Clustering, sys machine.System) (*schedule.Schedule, error) {
	g := c.G
	if err := algo.CheckInputs(g, sys); err != nil {
		return nil, err
	}
	s := schedule.New(g, sys)
	s.Algorithm = l.Name()
	n := g.NumTasks()
	bl := g.BottomLevels()
	prio := func(t int) pq.Key {
		if l.Order == SmallestBL {
			return pq.Key{Primary: bl[t]}
		}
		return pq.Key{Primary: -bl[t]}
	}

	mapped := make([]machine.Proc, len(c.Clusters)) // cluster -> proc or -1
	for i := range mapped {
		mapped[i] = -1
	}
	// Ready tasks, split by their cluster's mapping state.
	readyMapped := make([]*pq.Heap, sys.P)
	for p := range readyMapped {
		readyMapped[p] = pq.New(n)
	}
	readyUnmapped := pq.New(n)
	var procQ pq.Tree // processors by PRT
	procQ.Init(sys.P)
	for p := 0; p < sys.P; p++ {
		procQ.Set(p, pq.Key{Primary: 0})
	}

	rt := algo.NewReadyTracker(g)
	enqueue := func(t int) {
		if mp := mapped[c.Cluster[t]]; mp >= 0 {
			readyMapped[mp].Push(t, prio(t))
		} else {
			readyUnmapped.Push(t, prio(t))
		}
	}
	for _, t := range rt.Initial() {
		enqueue(t)
	}

	for !s.Complete() {
		p, _, _ := procQ.Min()
		ta, _, haveA := readyMapped[p].Peek() // candidate already mapped to p
		tb, _, haveB := readyUnmapped.Peek()  // candidate from an unmapped cluster

		var t int
		switch {
		case haveA && haveB:
			// "The one starting the earliest is scheduled" (§3.3); prefer
			// the mapped candidate on ties (no new cluster commitment).
			if s.EST(tb, p) < s.EST(ta, p) {
				t = tb
			} else {
				t = ta
			}
		case haveA:
			t = ta
		case haveB:
			t = tb
		default:
			// Every ready task belongs to a cluster mapped to some *other*
			// processor. Fall back to the earliest-starting (processor,
			// head task) pair among mapped ready queues.
			bestP, bestT, bestEST := -1, -1, 0.0
			for q := 0; q < sys.P; q++ {
				if tq, _, ok := readyMapped[q].Peek(); ok {
					if est := s.EST(tq, q); bestP == -1 || est < bestEST {
						bestP, bestT, bestEST = q, tq, est
					}
				}
			}
			if bestP == -1 {
				panic("llb: no ready tasks while schedule incomplete")
			}
			p, t = bestP, bestT
		}

		est := s.EST(t, p)
		cl := c.Cluster[t]
		if mapped[cl] == -1 {
			// Map the whole cluster to p; move its queued ready tasks.
			mapped[cl] = p
			readyUnmapped.Remove(t)
			// Other ready tasks of this cluster (rare but possible when DSC
			// produced a cluster whose tasks become ready independently)
			// migrate to p's mapped queue.
			for _, ct := range c.Clusters[cl] {
				if ct != t && readyUnmapped.Contains(ct) {
					readyUnmapped.Remove(ct)
					readyMapped[p].Push(ct, prio(ct))
				}
			}
		} else {
			readyMapped[p].Remove(t)
		}
		s.Place(t, p, est)
		procQ.Set(p, pq.Key{Primary: s.PRT(p)})
		for _, nt := range rt.Complete(t) {
			enqueue(nt)
		}
	}
	return s, nil
}
