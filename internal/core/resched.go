package core

import (
	"fmt"

	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/pq"
	"flb/internal/schedule"
)

// Rescheduler is the online repair engine behind flb.Execute's faults:
// when a processor fails it remaps the unexecuted suffix of the plan
// onto the surviving processors using FLB's selection criterion — the
// ready task able to start earliest, placed on the processor achieving
// that start — evaluated against the repair state (actual finish times
// of executed tasks, checkpoint fetch costs for outputs lost with a dead
// processor, survivor availability floors).
//
// Like Scheduler it is a reusable arena: repeated repairs on same-sized
// problems allocate nothing in steady state. When the fault precedes all
// execution (a cold crash at time zero), the repair IS a fresh FLB run
// on the surviving sub-machine: the embedded Scheduler arena computes it
// and placements map back through the survivor indices. This is valid
// because communication cost does not depend on processor identity
// (machine.RemoteCost); on a related machine the sub-system additionally
// carries the survivors' speed factors, compacted into an arena-owned
// slice.
//
// On uniformly related machines a crash is the limit case speed → 0: a
// dead processor executes nothing (infinite remaining exec time), so
// dropping it from the survivor set and letting the speed-aware
// criterion re-place its work — typically onto slower but live survivors
// — is exactly the related-machines generalization of the paper's
// repair. The selection key follows the scheduler's: earliest start on
// homogeneous survivors, earliest finish (start + w/speed) when the
// survivors have distinct speeds.
//
// A Rescheduler is not safe for concurrent use.
type Rescheduler struct {
	sc        *Scheduler
	plan      *schedule.Schedule
	ready     []int   // repairSuffix's candidates, scanned in full
	readyQ    pq.Heap // ReplanSuffix's candidates, by bottom level
	pending   []int
	inPlan    []bool
	procMap   []machine.Proc
	subSpeeds []float64
}

// NewRescheduler returns an empty repair arena running the default FLB
// variant.
func NewRescheduler() *Rescheduler {
	return &Rescheduler{sc: NewScheduler(FLB{})}
}

// Repair implements fault.Repairer.
func (r *Rescheduler) Repair(req *fault.Request) error {
	alive := req.AliveCount()
	if alive == 0 {
		return fmt.Errorf("core: reschedule with no surviving processors")
	}
	if r.coldStart(req) {
		return r.repairCold(req, alive)
	}
	return r.repairSuffix(req)
}

// coldStart reports whether nothing has executed and every survivor is
// idle from time zero — the case where the repair problem is exactly a
// fresh scheduling problem on the surviving sub-machine.
func (r *Rescheduler) coldStart(req *fault.Request) bool {
	if len(req.Todo) != req.G.NumTasks() {
		return false
	}
	for p, ok := range req.Alive {
		if ok && req.Floor[p] != 0 {
			return false
		}
	}
	return true
}

// repairCold runs full FLB on a compacted system of the alive processors
// and maps the placements back to actual processor indices.
func (r *Rescheduler) repairCold(req *fault.Request, alive int) error {
	r.procMap = r.procMap[:0]
	r.subSpeeds = r.subSpeeds[:0]
	for p, ok := range req.Alive {
		if ok {
			r.procMap = append(r.procMap, machine.Proc(p))
			if req.Sys.Speeds != nil {
				r.subSpeeds = append(r.subSpeeds, req.Sys.Speeds[p])
			}
		}
	}
	subSys := machine.System{P: alive, Comm: req.Sys.Comm}
	if req.Sys.Speeds != nil {
		subSys.Speeds = r.subSpeeds
	}
	sub, err := r.sc.Schedule(req.G, subSys)
	if err != nil {
		return err
	}
	for _, t := range sub.PlacementOrder() {
		req.Assign(t, r.procMap[sub.Proc(t)])
	}
	return nil
}

// repairSuffix list-schedules the pending tasks with the FLB criterion
// against the executed prefix: each step places the (task, survivor)
// pair with the earliest achievable start time. Placement order is a
// topological order of the pending sub-DAG, so Request.Seq is a valid
// execution order.
func (r *Rescheduler) repairSuffix(req *fault.Request) error {
	g, sys := req.G, req.Sys
	n := g.NumTasks()
	if r.plan == nil {
		r.plan = schedule.New(g, sys)
	} else {
		r.plan.Reset(g, sys)
	}
	r.plan.Algorithm = "flb-resched"
	for p := 0; p < sys.P; p++ {
		if req.Alive[p] {
			r.plan.SetPRTFloor(p, req.Floor[p])
		}
	}
	bl := g.BottomLevels()
	r.inPlan = growBool(r.inPlan, n)
	clear(r.inPlan)
	for _, t := range req.Todo {
		r.inPlan[t] = true
	}
	r.pending = growInt(r.pending, n)
	r.ready = r.ready[:0]
	for _, t := range req.Todo {
		cnt := 0
		for _, ei := range g.PredEdges(t) {
			if r.inPlan[g.Edge(int(ei)).From] {
				cnt++
			}
		}
		r.pending[t] = cnt
		if cnt == 0 {
			r.ready = append(r.ready, t)
		}
	}
	// The selection key: earliest start on homogeneous survivors (the
	// paper's criterion), earliest finish when the survivors' speeds
	// differ — the homogeneous comparisons stay bit-identical to the seed.
	het := sys.Heterogeneous()
	for placed := 0; placed < len(req.Todo); placed++ {
		bi, bt, bp := -1, -1, machine.Proc(-1)
		best, bestStart := 0.0, 0.0
		for i, t := range r.ready {
			for p := 0; p < sys.P; p++ {
				if !req.Alive[p] {
					continue
				}
				est := r.est(req, t, p)
				key := est
				if het {
					key += sys.ExecTime(g.Comp(t), p)
				}
				if bi < 0 || betterRepair(key, best, bl, t, bt, p, bp) {
					bi, bt, bp, best, bestStart = i, t, p, key, est
				}
			}
		}
		if bi < 0 {
			return fmt.Errorf("core: reschedule stuck with %d tasks left — pending suffix is cyclic", len(req.Todo)-placed)
		}
		r.plan.Place(bt, bp, bestStart)
		req.Assign(bt, bp)
		r.inPlan[bt] = false
		r.ready[bi] = r.ready[len(r.ready)-1]
		r.ready = r.ready[:len(r.ready)-1]
		for _, ei := range g.SuccEdges(bt) {
			to := g.Edge(int(ei)).To
			if !r.inPlan[to] {
				continue
			}
			r.pending[to]--
			if r.pending[to] == 0 {
				r.ready = append(r.ready, to)
			}
		}
	}
	return nil
}

// ReplanSuffix rebuilds the tail of a previously computed schedule for a
// weight-drifted resubmission of the same graph structure: the first k
// placements of base are replayed bit-identically (task, processor and
// start time), and the remaining tasks are list-scheduled onto g in
// bottom-level priority order (the paper's task priority; ties to the
// smaller task id), each task placed on the processor achieving its
// earliest start (ties to the smaller processor index). Selection runs
// off a heap (internal/pq), so a repair of S tasks costs O(S log S + S·d·P)
// instead of the O(S·ready·P) full rescan the fault path performs — the
// near-hit tier must stay well under a cold FLB run to be worth serving.
// It is the engine behind the schedule cache's near-hit tier
// (internal/memo).
//
// Soundness of the prefix replay requires that for every task in
// base.PlacementOrder()[:k] the computation cost and every in-edge
// communication cost are unchanged between base's graph and g: placement
// order is topological, so all predecessors of a replayed task are
// themselves replayed, their finish times reproduce exactly (unchanged
// comp), and every replayed start time remains feasible (unchanged
// in-edge comms). The caller (the cache) establishes this by choosing k
// as the minimum base position over weight-changed tasks.
//
// The replanned suffix is deterministic in (g, sys, base, k) — the arena
// is history-independent, so any Rescheduler produces bit-identical
// output — but it is NOT the schedule a cold FLB run on g would produce:
// FLB's tie-breaking uses bottom levels, which are global functions of
// all downstream weights, so a trailing drift can reorder even the
// untouched prefix of a cold run. See DESIGN.md §13 for the full
// argument.
//
// The returned schedule is arena-owned: valid only until the next Repair
// or ReplanSuffix call on r. Callers that keep it must Clone it.
func (r *Rescheduler) ReplanSuffix(g *graph.Graph, sys machine.System, base *schedule.Schedule, k int) (*schedule.Schedule, error) {
	n := g.NumTasks()
	order := base.PlacementOrder()
	if len(order) != n {
		return nil, fmt.Errorf("core: ReplanSuffix base places %d tasks, graph has %d", len(order), n)
	}
	if base.NumProcs() != sys.P {
		return nil, fmt.Errorf("core: ReplanSuffix base has P=%d, system has P=%d", base.NumProcs(), sys.P)
	}
	if k < 0 || k > n {
		return nil, fmt.Errorf("core: ReplanSuffix prefix length %d out of range [0,%d]", k, n)
	}
	if r.plan == nil {
		r.plan = schedule.New(g, sys)
	} else {
		r.plan.Reset(g, sys)
	}
	r.plan.Algorithm = "flb-nearhit"
	for i := 0; i < k; i++ {
		t := order[i]
		r.plan.Place(t, base.Proc(t), base.Start(t))
	}
	if k == n {
		return r.plan, nil
	}
	bl := g.BottomLevels()
	r.inPlan = growBool(r.inPlan, n)
	clear(r.inPlan)
	for i := k; i < n; i++ {
		r.inPlan[order[i]] = true
	}
	r.pending = growInt(r.pending, n)
	// Priority: larger bottom level first (negated key), ties to the
	// smaller task id (pq's final tie-break) — a total order, so the
	// replan is deterministic.
	r.readyQ.Grow(n)
	for i := k; i < n; i++ {
		t := order[i]
		cnt := 0
		for _, ei := range g.PredEdges(t) {
			if r.inPlan[g.Edge(int(ei)).From] {
				cnt++
			}
		}
		r.pending[t] = cnt
		if cnt == 0 {
			r.readyQ.Push(t, pq.Key{Primary: -bl[t]})
		}
	}
	het := sys.Heterogeneous()
	for placed := k; placed < n; placed++ {
		bt, _, ok := r.readyQ.Pop()
		if !ok {
			return nil, fmt.Errorf("core: ReplanSuffix stuck with %d tasks left — suffix is cyclic", n-placed)
		}
		// Earliest start on homogeneous systems (bit-identical to the seed
		// near-hit tier); earliest finish on related machines.
		bp, bestStart := machine.Proc(0), r.plan.EST(bt, 0)
		bestKey := bestStart
		if het {
			bestKey += sys.ExecTime(g.Comp(bt), 0)
		}
		for p := 1; p < sys.P; p++ {
			est := r.plan.EST(bt, machine.Proc(p))
			key := est
			if het {
				key += sys.ExecTime(g.Comp(bt), machine.Proc(p))
			}
			if key < bestKey {
				bp, bestStart, bestKey = machine.Proc(p), est, key
			}
		}
		r.plan.Place(bt, bp, bestStart)
		r.inPlan[bt] = false
		for _, ei := range g.SuccEdges(bt) {
			to := g.Edge(int(ei)).To
			if !r.inPlan[to] {
				continue
			}
			r.pending[to]--
			if r.pending[to] == 0 {
				r.readyQ.Push(to, pq.Key{Primary: -bl[to]})
			}
		}
	}
	return r.plan, nil
}

// est returns the earliest start of pending task t on survivor p: the
// processor's ready time versus the arrival of every predecessor output,
// which comes from the repair plan (unexecuted predecessor already
// replanned), from the predecessor's surviving processor, or from the
// checkpoint store at full remote cost if its processor is dead.
//
//flb:hotpath
func (r *Rescheduler) est(req *fault.Request, t int, p machine.Proc) float64 {
	g, sys := req.G, req.Sys
	rel := r.plan.PRT(p)
	for _, ei := range g.PredEdges(t) {
		e := g.Edge(int(ei))
		var a float64
		if r.plan.Assigned(e.From) {
			a = r.plan.Finish(e.From) + sys.CommCost(e.Comm, r.plan.Proc(e.From), p)
		} else if op := req.Proc[e.From]; req.Alive[op] {
			a = req.Finish[e.From] + sys.CommCost(e.Comm, op, p)
		} else {
			a = req.Finish[e.From] + sys.RemoteCost(e.Comm)
		}
		if a > rel {
			rel = a
		}
	}
	return rel
}

// betterRepair reports whether candidate (est, t, p) beats the incumbent
// (best, bt, bp): earlier selection key (start time, or finish time on
// related machines), then larger bottom level (the paper's priority),
// then smaller task id, then smaller processor index.
//
//flb:exact the repair tie-break is a total order over (start, level, id, proc); equal keys must compare bit-identically or repairs lose determinism
//flb:hotpath
func betterRepair(est, best float64, bl []float64, t, bt int, p, bp machine.Proc) bool {
	if est != best {
		return est < best
	}
	if bl[t] != bl[bt] {
		return bl[t] > bl[bt]
	}
	if t != bt {
		return t < bt
	}
	return p < bp
}

func growInt(v []int, n int) []int {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]int, n)
}

func growBool(v []bool, n int) []bool {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]bool, n)
}
