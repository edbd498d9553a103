package schedule

import (
	"fmt"
	"math"
	"sort"

	"flb/internal/graph"
	"flb/internal/machine"
)

// Duplication support. The paper's §1 splits bounded-processor scheduling
// into duplicating (DSH, BTDH, CPFD) and non-duplicating heuristics and
// measures only the latter; the duplication-based extension scheduler
// (internal/algo/dup) needs schedules in which a task may execute on
// several processors. The *primary* copy keeps the regular
// Proc/Start/Finish accessors; extra copies are recorded separately, count
// toward processor occupancy and ready times, and satisfy consumers'
// message requirements (a consumer may read any copy).

// Copy is one execution of a task.
type Copy struct {
	Proc          machine.Proc
	Start, Finish float64
}

// PlaceCopy schedules an additional copy of task t (already placed) on
// processor p at start st. It panics if t has no primary placement yet or
// p is out of range — algorithm bugs, as with Place.
func (s *Schedule) PlaceCopy(t int, p machine.Proc, st float64) {
	if s.proc[t] == Unassigned {
		panic(fmt.Sprintf("schedule: PlaceCopy(%d) before primary placement", t))
	}
	if p < 0 || p >= s.sys.P {
		panic(fmt.Sprintf("schedule: processor %d out of range [0,%d)", p, s.sys.P))
	}
	if s.dups == nil {
		s.dups = make(map[int][]Copy, 4)
	}
	c := Copy{Proc: p, Start: st, Finish: st + s.sys.ExecTime(s.g.Comp(t), p)}
	s.dups[t] = append(s.dups[t], c)
	if c.Finish > s.prt[p] {
		s.prt[p] = c.Finish
	}
}

// HasDuplicates reports whether any task has extra copies.
func (s *Schedule) HasDuplicates() bool { return len(s.dups) > 0 }

// Copies returns all executions of t: the primary placement first, then
// any duplicates, in placement order. Empty if t is unplaced.
func (s *Schedule) Copies(t int) []Copy {
	if s.proc[t] == Unassigned {
		return nil
	}
	out := make([]Copy, 0, 1+len(s.dups[t]))
	out = append(out, Copy{Proc: s.proc[t], Start: s.start[t], Finish: s.finish[t]})
	out = append(out, s.dups[t]...)
	return out
}

// BestArrival returns the earliest time the message carried by edge e is
// available on processor p, taking every copy of the producer into
// account. With no duplicates it equals ArrivalTime.
func (s *Schedule) BestArrival(e graph.Edge, p machine.Proc) float64 {
	best := math.Inf(1)
	for _, c := range s.Copies(e.From) {
		a := c.Finish + s.sys.CommCost(e.Comm, c.Proc, p)
		if a < best {
			best = a
		}
	}
	return best
}

// DataReadyDup returns the earliest time all of t's messages are available
// on processor p, minimizing each message's arrival over the producer's
// copies.
func (s *Schedule) DataReadyDup(t int, p machine.Proc) float64 {
	var ready float64
	for _, ei := range s.g.PredEdges(t) {
		e := s.g.Edge(int(ei))
		best := math.Inf(1)
		for _, c := range s.Copies(e.From) {
			a := c.Finish + s.sys.CommCost(e.Comm, c.Proc, p)
			if a < best {
				best = a
			}
		}
		if best > ready {
			ready = best
		}
	}
	return ready
}

// ValidateDup validates a schedule that may contain duplicates:
//
//  1. every task has a primary placement;
//  2. no two executions (primary or copy) overlap on any processor;
//  3. every execution of a task starts only after all the task's messages
//     can reach its processor (each message from the best copy of its
//     producer);
//  4. finish times are consistent.
//
// For schedules without duplicates it is equivalent to Validate.
func (s *Schedule) ValidateDup() error {
	if !s.Complete() {
		return fmt.Errorf("schedule(%s): only %d of %d tasks placed", s.Algorithm, s.placed, s.g.NumTasks())
	}
	// Per-processor interval check over primaries + copies.
	type ival struct {
		start, finish float64
		task          int
	}
	byProc := make([][]ival, s.sys.P)
	for t := 0; t < s.g.NumTasks(); t++ {
		for _, c := range s.Copies(t) {
			if c.Finish != c.Start+s.sys.ExecTime(s.g.Comp(t), c.Proc) {
				return fmt.Errorf("schedule(%s): task %d copy has FT != ST+comp/speed", s.Algorithm, t)
			}
			if c.Start < -tolerance {
				return fmt.Errorf("schedule(%s): task %d copy starts at %v < 0", s.Algorithm, t, c.Start)
			}
			byProc[c.Proc] = append(byProc[c.Proc], ival{c.Start, c.Finish, t})
		}
	}
	for p, ivs := range byProc {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].finish-tolerance {
				return fmt.Errorf("schedule(%s): tasks %d and %d overlap on processor %d",
					s.Algorithm, ivs[i-1].task, ivs[i].task, p)
			}
		}
	}
	// Every execution respects message availability.
	for t := 0; t < s.g.NumTasks(); t++ {
		for _, c := range s.Copies(t) {
			if ready := s.DataReadyDup(t, c.Proc); c.Start < ready-tolerance {
				return fmt.Errorf("schedule(%s): task %d execution on p%d starts at %v before data ready %v",
					s.Algorithm, t, c.Proc, c.Start, ready)
			}
		}
	}
	return nil
}
