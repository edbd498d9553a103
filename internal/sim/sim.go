// Package sim is an event-driven execution simulator for static schedules.
//
// The paper's algorithms are compile-time schedulers: they fix, before
// execution, each task's processor and the per-processor execution order,
// using *estimated* computation and communication costs. At run time the
// actual costs deviate from the estimates. This package executes a
// schedule under such deviations: task order and placement stay as
// scheduled (the usual self-timed execution of a static schedule), but
// start times are determined dynamically by actual task completions and
// message arrivals. It answers the question the paper's evaluation leaves
// open — how robust are the produced schedules to misestimation? — and is
// used by the robustness experiment in internal/bench.
//
// The package has one self-timed engine, Run, which also injects
// failures (fault.Plan); a zero plan is the fault-free execution.
// RunContended is the one other engine: it serializes remote messages on
// network resources, which needs a global event-time order rather than
// Run's walk over tasks in dependency order.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"flb/internal/schedule"
)

// procChain returns processor p's tasks ordered by planned start time —
// the execution sequence the self-timed run preserves. For the append-only
// schedulers this equals placement order; insertion-based placement (MCP
// with Insertion) may place out of order, so the chain is sorted. Ties
// (zero-cost tasks sharing a start time) are broken by topological rank,
// which makes the chain a total order that never contradicts precedence.
func procChain(s *schedule.Schedule, p int, pos []int) []int {
	tasks := append([]int(nil), s.TasksOn(p)...)
	sort.Slice(tasks, func(i, j int) bool {
		ti, tj := tasks[i], tasks[j]
		if s.Start(ti) != s.Start(tj) {
			return s.Start(ti) < s.Start(tj)
		}
		return pos[ti] < pos[tj]
	})
	return tasks
}

// topoPositions returns each task's rank in a fixed topological order of
// the scheduled graph, used as the chain tie-break. If the graph is
// cyclic (the deadlock check reports that later), ranks fall back to
// task ids.
func topoPositions(s *schedule.Schedule) []int {
	g := s.Graph()
	pos := make([]int, g.NumTasks())
	if topo, err := g.TopoOrder(); err == nil {
		for i, t := range topo {
			pos[t] = i
		}
	} else {
		for i := range pos {
			pos[i] = i
		}
	}
	return pos
}

// Perturb maps an estimated cost to an actual cost. Implementations must
// return non-negative values.
type Perturb func(estimated float64) float64

// Exact returns the estimate unchanged — simulating with Exact must
// reproduce the schedule's own start times exactly (self-timed execution
// of a feasible list schedule never reorders).
func Exact() Perturb {
	return func(est float64) float64 { return est }
}

// UniformJitter scales each cost by a factor drawn uniformly from
// [1-eps, 1+eps]. eps must be in [0, 1].
func UniformJitter(rng *rand.Rand, eps float64) Perturb {
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("sim: UniformJitter eps = %v, want [0,1]", eps))
	}
	return func(est float64) float64 {
		return est * (1 - eps + 2*eps*rng.Float64())
	}
}

// Result is the outcome of one simulated execution.
type Result struct {
	// Makespan is the actual parallel completion time.
	Makespan float64
	// Start and Finish are the actual per-task times.
	Start, Finish []float64
	// Utilization is the fraction of the makespan each processor spent
	// computing.
	Utilization []float64
}
