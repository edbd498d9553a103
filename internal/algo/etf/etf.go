// Package etf implements ETF (Earliest Task First) scheduling
// [Hwang, Chow, Anger & Lee, SIAM J. Computing 1989], the paper's
// reference point for FLB's selection criterion (§3.2).
//
// At each iteration ETF tentatively schedules *every* ready task on
// *every* processor, then commits the pair with the minimum estimated
// start time. The result quality matches FLB's by construction (both
// schedule the earliest-starting ready task; only tie-breaking differs),
// but the exhaustive scan costs O(W(E+V)P) overall — the cost FLB's
// two-candidate theorem eliminates.
package etf

import (
	"sync"

	"flb/internal/algo"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/schedule"
)

// ETF is the Earliest Task First scheduler. The zero value is ready to use.
type ETF struct{}

// Name implements the Algorithm interface.
func (ETF) Name() string { return "ETF" }

// etfState is the reusable per-run scratch: the ready list and tracker.
// The exhaustive ready×processor scan dominates ETF's cost, but pooling
// keeps its steady-state allocations to the output schedule alone.
type etfState struct {
	rt    algo.ReadyTracker
	ready []int
}

var statePool = sync.Pool{New: func() any { return new(etfState) }}

// reset re-targets the arena at g, reusing backing arrays. The ready list
// is truncated; Schedule refills it from the tracker's initial set.
func (st *etfState) reset(g *graph.Graph) {
	st.rt.Reset(g)
	st.ready = st.ready[:0]
}

// Schedule implements the Algorithm interface.
func (e ETF) Schedule(g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	if err := algo.CheckInputs(g, sys); err != nil {
		return nil, err
	}
	s := schedule.New(g, sys)
	s.Algorithm = e.Name()
	// ETF breaks start-time ties with statically computed priorities
	// (paper §6.2); we use bottom levels, larger first.
	bl := g.BottomLevels()
	st := statePool.Get().(*etfState)
	st.reset(g)
	rt := &st.rt
	ready := append(st.ready, rt.Initial()...)

	// On uniformly related machines the committed pair minimizes the
	// estimated *finish* time est + w/speed (ETF's criterion degenerates
	// to it on homogeneous machines, where the scan below keeps the seed's
	// bit-identical EST comparisons).
	het := sys.Heterogeneous()
	for s.Graph().NumTasks() > 0 && !s.Complete() {
		bestIdx, bestProc := -1, -1
		var bestEST, bestKey float64
		for i, t := range ready {
			for p := 0; p < sys.P; p++ {
				est := s.EST(t, p)
				key := est
				if het {
					key += sys.ExecTime(g.Comp(t), p)
				}
				better := bestIdx == -1 || key < bestKey
				//flb:exact tie-breaking fires only on bit-identical keys, matching the heap comparators
				if !better && key == bestKey {
					bt := ready[bestIdx]
					// Tie: larger bottom level, then smaller task id, then
					// smaller processor id — fully deterministic.
					//flb:exact exact bottom-level comparison defines the deterministic total order
					if bl[t] != bl[bt] {
						better = bl[t] > bl[bt]
					} else if t != bt {
						better = t < bt
					} else {
						better = p < bestProc
					}
				}
				if better {
					bestIdx, bestProc, bestEST, bestKey = i, p, est, key
				}
			}
		}
		t := ready[bestIdx]
		s.Place(t, bestProc, bestEST)
		ready[bestIdx] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		ready = append(ready, rt.Complete(t)...)
	}
	st.ready = ready // keep the grown capacity for the next run
	st.rt.Release()
	statePool.Put(st)
	return s, nil
}
