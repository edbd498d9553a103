package schedule

import (
	"fmt"
	"sort"
)

// tolerance absorbs float64 rounding in start-time comparisons. All the
// paper's examples are exact in float64, but CCR rescaling introduces
// rounding on synthetic workloads.
const tolerance = 1e-9

// Validate checks that the schedule is feasible:
//
//  1. every task is placed exactly once on an in-range processor;
//  2. tasks on the same processor do not overlap in time;
//  3. every task starts only after all its messages have arrived
//     (ST(t) >= FT(pred) + comm under the system's model);
//  4. finish times are consistent (FT = ST + comp) and starts non-negative.
//
// It returns a descriptive error for the first violation.
func (s *Schedule) Validate() error {
	if s.HasDuplicates() {
		// Duplicated schedules need copy-aware checking throughout.
		return s.ValidateDup()
	}
	if !s.Complete() {
		return fmt.Errorf("schedule(%s): only %d of %d tasks placed", s.Algorithm, s.placed, s.g.NumTasks())
	}
	for t := 0; t < s.g.NumTasks(); t++ {
		if s.proc[t] < 0 || s.proc[t] >= s.sys.P {
			return fmt.Errorf("schedule(%s): task %d on processor %d, want [0,%d)", s.Algorithm, t, s.proc[t], s.sys.P)
		}
		if s.start[t] < -tolerance {
			return fmt.Errorf("schedule(%s): task %d starts at %v < 0", s.Algorithm, t, s.start[t])
		}
		if got, want := s.finish[t], s.start[t]+s.sys.ExecTime(s.g.Comp(t), s.proc[t]); got != want {
			return fmt.Errorf("schedule(%s): task %d FT = %v, want ST+comp/speed = %v", s.Algorithm, t, got, want)
		}
	}
	// Processor exclusivity: per processor, sort by start time (insertion-
	// based algorithms may place out of placement order) and check that
	// intervals do not overlap.
	for p := 0; p < s.sys.P; p++ {
		tasks := append([]int(nil), s.order[p]...)
		sort.Slice(tasks, func(i, j int) bool { return s.start[tasks[i]] < s.start[tasks[j]] })
		prevEnd := 0.0
		prev := -1
		for _, t := range tasks {
			if s.start[t] < prevEnd-tolerance {
				return fmt.Errorf("schedule(%s): tasks %d and %d overlap on processor %d (%v < %v)",
					s.Algorithm, prev, t, p, s.start[t], prevEnd)
			}
			prevEnd = s.finish[t]
			prev = t
		}
	}
	// Precedence + communication delays.
	for i := 0; i < s.g.NumEdges(); i++ {
		e := s.g.Edge(i)
		arrive := s.ArrivalTime(e, s.proc[e.To])
		if s.start[e.To] < arrive-tolerance {
			return fmt.Errorf("schedule(%s): task %d starts at %v before message from %d arrives at %v",
				s.Algorithm, e.To, s.start[e.To], e.From, arrive)
		}
	}
	return nil
}

// ValidateListOrder additionally checks the list-scheduling property that
// every task starts no earlier than the finish of the previously placed
// task on its processor *and* that a task is placed only after all its
// predecessors (placement order is a topological order). All algorithms in
// this module satisfy it; it is used by tests.
func (s *Schedule) ValidateListOrder(placementOrder []int) error {
	seen := make([]bool, s.g.NumTasks())
	for _, t := range placementOrder {
		for _, ei := range s.g.PredEdges(t) {
			if from := s.g.Edge(int(ei)).From; !seen[from] {
				return fmt.Errorf("schedule(%s): task %d placed before its predecessor %d", s.Algorithm, t, from)
			}
		}
		seen[t] = true
	}
	return nil
}
