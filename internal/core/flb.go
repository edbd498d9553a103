// Package core implements FLB (Fast Load Balancing), the compile-time
// list-scheduling algorithm of Rădulescu & van Gemund (ICPP 1999) — the
// primary contribution of the reproduced paper.
//
// At each iteration FLB schedules the ready task that can start the
// earliest, on the processor where that start time is achieved — the same
// criterion as ETF — in O(V(log W + log P) + E) total time instead of
// ETF's O(W(E+V)P). The key insight (paper Theorem 3) is that the globally
// earliest-starting ready task is always one of just two candidates:
//
//   - the EP-type task with minimum estimated start time on its enabling
//     processor (the processor its last message arrives from), and
//   - the non-EP-type task with minimum last message arrival time, placed
//     on the processor becoming idle the earliest.
//
// A ready task t is of type EP when LMT(t) >= PRT(EP(t)): its last message
// arrives no earlier than its enabling processor becomes idle, so it
// starts earliest there (the message cost is zeroed). Otherwise the task
// cannot start before LMT(t) on any processor, so the earliest-idle
// processor is optimal.
//
// The implementation follows the paper's pseudocode (§4.1): two per-
// processor heaps of EP tasks (keyed by EMT and LMT respectively), a
// global heap of non-EP tasks (keyed by LMT), a heap of active processors
// (keyed by the EST of their best EP task) and a heap of all processors
// (keyed by PRT). All task-level ties break on larger bottom level — "the
// task with the longest path to any exit task" — then smaller task ID.
//
// All of the algorithm's working state lives in a reusable arena
// (Scheduler); the stateless FLB.Schedule entry point draws arenas from a
// sync.Pool, so its steady-state cost is the fresh output Schedule plus
// O(log) heap work — no per-run heap, tracker or level allocations.
//
// # Uniformly related machines
//
// When the system carries at least two distinct speed factors
// (machine.System.Heterogeneous), the selection criterion generalizes
// from earliest start time to earliest finish time: EFT(t,p) =
// max(EMT/LMT, PRT(p)) + w(t)/speed(p). Starts alone can no longer rank
// processors — a slow processor often offers the earliest start but a
// late finish. Two structures change (DESIGN.md §16):
//
//   - the active-processor heap is keyed by the EFT (not EST) of each
//     processor's head EP task, and the EP-vs-non-EP comparison is on
//     EFT, keeping the paper's non-EP-wins-ties rule;
//   - the all-processors PRT heap is split into one PRT heap per *speed
//     class* (processors sharing a speed factor). Within a class the
//     earliest-idle processor still minimizes EFT, so the best non-EP
//     placement is argmin over classes of max(LMT, PRT(head_c)) + w/s_c —
//     K = #classes heap peeks instead of a P-way scan, preserving the
//     paper's complexity with a +K term per iteration.
//
// The per-processor EP heaps keep their EMT ordering: on one processor
// every task shares a speed, but distinct weights mean the head-by-EMT
// choice is a heuristic rather than exact under heterogeneity (§16
// discusses why this is acceptable). With fewer than two distinct speeds
// the arena takes the homogeneous decision path — bit-identical to the
// seed implementation — and only the execution times divide by speed.
package core

import (
	"context"
	"fmt"
	"math"

	"flb/internal/algo"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/pq"
	"flb/internal/schedule"
)

// FLB is the Fast Load Balancing scheduler. The zero value is the paper's
// configuration; the ablation switches disable individual design choices
// the paper motivates (§4, §6.2) so their contribution can be measured
// (see BenchmarkAblation* and the tie-breaking discussion in DESIGN.md).
type FLB struct {
	// Sink, when non-nil, receives the decision trace: one obs.SchedStep
	// per iteration (the paper's ScheduleTask comparison) plus
	// obs.TaskReady / obs.TaskDemoted list transitions. A nil Sink costs
	// one predictable branch per event site and keeps the hot path at
	// zero allocations (DESIGN.md §11). Capture the paper's Table 1 with
	// a StepRecorder (see Collect).
	Sink obs.Sink

	// NoBLTieBreak disables the bottom-level tie-breaking ("the task with
	// the longest path to any exit task", §4.1); ties then fall through to
	// task IDs. The paper credits FLB's edge over ETF to its dynamic
	// priorities with this static refinement (§6.2).
	NoBLTieBreak bool

	// PreferEPOnTie inverts the paper's rule that on equal earliest start
	// times the non-EP task wins (its communication is already overlapped
	// with computation, §4.1).
	PreferEPOnTie bool
}

// Name implements the Algorithm interface.
func (f FLB) Name() string {
	name := "FLB"
	if f.NoBLTieBreak {
		name += "-nobl"
	}
	if f.PreferEPOnTie {
		name += "-eptie"
	}
	return name
}

// Schedule implements the Algorithm interface. It is stateless from the
// caller's perspective — the returned schedule is caller-owned — but
// internally draws its working arena from a pool, so repeated calls do
// not re-allocate heaps, trackers or scratch arrays.
func (f FLB) Schedule(g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	return f.scheduleCtx(nil, g, sys)
}

// ScheduleContext is Schedule with cooperative cancellation: the run loop
// polls ctx every 4096 placements (a few hundred microseconds of work at
// million-task scale) and aborts with ctx.Err() — wrapped, so errors.Is
// against context.Canceled / context.DeadlineExceeded holds — discarding
// the partial schedule. A nil ctx behaves exactly like Schedule. The poll
// sits outside the per-placement hot path, so schedules produced under a
// never-canceled context are bit-identical to Schedule's.
func (f FLB) ScheduleContext(ctx context.Context, g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	return f.scheduleCtx(ctx, g, sys)
}

func (f FLB) scheduleCtx(ctx context.Context, g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	if err := algo.CheckInputs(g, sys); err != nil {
		return nil, err
	}
	st := statePool.Get().(*flbState)
	s := schedule.New(g, sys)
	s.Algorithm = f.Name()
	st.reset(f, g, sys, s)
	st.ctx = ctx
	err := st.run()
	st.release()
	statePool.Put(st)
	if err != nil {
		return nil, fmt.Errorf("core: FLB scheduling aborted: %w", err)
	}
	return s, nil
}

// flbState carries the paper's data structures through one run. It is the
// reusable scratch arena: reset re-targets every slice and heap at a new
// (graph, system) pair without reallocating when capacities suffice.
type flbState struct {
	g   *graph.Graph
	sys machine.System
	s   *schedule.Schedule
	ctx context.Context // non-nil only under ScheduleContext; polled every 4096 placements

	bl       []float64 // static bottom levels, tie-breaking priority
	noBL     bool      // ablation: ignore bottom levels in tie-breaking
	preferEP bool      // ablation: prefer the EP candidate on start ties
	sink     obs.Sink  // nil = observability disabled (the fast path)

	// Per ready task, fixed once the task becomes ready:
	lmt []float64      // last message arrival time
	emt []float64      // effective message arrival time on the enabling proc
	ep  []machine.Proc // enabling processor (-1 for entry tasks)

	// A task is enabled by exactly one processor, so the per-processor EP
	// heaps share one position store per key kind, keeping memory at
	// O(V + P) instead of O(P*V).
	emtPos []int
	lmtPos []int

	emtEP  []pq.Heap // per proc: EP tasks keyed by (EMT, -BL)
	lmtEP  []pq.Heap // per proc: EP tasks keyed by (LMT, -BL)
	nonEP  pq.Heap   // non-EP tasks keyed by (LMT, -BL)
	active pq.Heap   // active procs keyed by (EST/EFT of head EP task, -BL(head))
	all    pq.Heap   // all procs keyed by (PRT); homogeneous path only

	// Related-machines state (hetero only). Processors are partitioned
	// into speed classes; the non-EP processor choice minimizes EFT over
	// the per-class earliest-idle processors instead of peeking `all`.
	hetero bool
	//flb:keep fully rebuilt by buildClasses on heterogeneous runs; never read on homogeneous ones
	classSpeed []float64 // distinct speed factors, descending
	//flb:keep fully rebuilt by buildClasses on heterogeneous runs; never read on homogeneous ones
	classOf []int // per proc: index into classSpeed
	//flb:keep re-sized by buildClasses, then reset by each class heap's Init on heterogeneous runs
	classPos []int // shared position store of the class heaps
	//flb:keep fully rebuilt by buildClasses on heterogeneous runs; never read on homogeneous ones
	classPRT []pq.Heap // per class: procs keyed by (PRT)

	ready algo.ReadyTracker
}

// reset prepares the arena for one run of f over g on sys, writing the
// placements into s. With sufficient capacity from a previous run it
// performs no allocations (bottom levels come memoized from the graph).
func (st *flbState) reset(f FLB, g *graph.Graph, sys machine.System, s *schedule.Schedule) {
	n, p := g.NumTasks(), sys.P
	st.g, st.sys, st.s = g, sys, s
	st.ctx = nil // entry points opt in after reset

	st.bl = g.BottomLevels()
	st.noBL, st.preferEP = f.NoBLTieBreak, f.PreferEPOnTie
	st.sink = f.Sink
	st.lmt = growFloat(st.lmt, n)
	st.emt = growFloat(st.emt, n)
	clear(st.lmt)
	clear(st.emt)
	st.ep = growProc(st.ep, n)
	for i := range st.ep {
		st.ep[i] = -1
	}
	st.emtPos = pq.GrowPos(st.emtPos, n)
	st.lmtPos = pq.GrowPos(st.lmtPos, n)
	if cap(st.emtEP) < p {
		emt := make([]pq.Heap, p)
		lmt := make([]pq.Heap, p)
		copy(emt, st.emtEP)
		copy(lmt, st.lmtEP)
		st.emtEP, st.lmtEP = emt, lmt
	} else {
		st.emtEP = st.emtEP[:p]
		st.lmtEP = st.lmtEP[:p]
	}
	for i := 0; i < p; i++ {
		st.emtEP[i].Init(st.emtPos)
		st.lmtEP[i].Init(st.lmtPos)
	}
	st.nonEP.Grow(n)
	st.active.Grow(p)
	st.all.Grow(p)
	st.hetero = sys.Heterogeneous()
	if st.hetero {
		st.buildClasses(p)
	}
	st.ready.Reset(g)
}

// buildClasses partitions the processors of a related machine into speed
// classes: classSpeed holds the distinct speed factors in descending
// order (faster classes first, so EFT ties across classes resolve toward
// the faster processor), classOf maps each processor to its class, and
// classPRT holds one empty PRT-keyed heap per class. Runs at reset time;
// with sufficient capacity from a previous run it performs no
// allocations.
func (st *flbState) buildClasses(p int) {
	st.classSpeed = st.classSpeed[:0]
	for i := 0; i < p; i++ {
		sp := st.sys.Speeds[i]
		seen := false
		for _, cs := range st.classSpeed {
			if cs == sp { //flb:exact class membership is exact speed equality, matching Heterogeneous()
				seen = true
				break
			}
		}
		if !seen {
			st.classSpeed = append(st.classSpeed, sp)
		}
	}
	// Insertion sort, descending: K is tiny (K <= P, typically a handful).
	for i := 1; i < len(st.classSpeed); i++ {
		v := st.classSpeed[i]
		j := i - 1
		for j >= 0 && st.classSpeed[j] < v {
			st.classSpeed[j+1] = st.classSpeed[j]
			j--
		}
		st.classSpeed[j+1] = v
	}
	k := len(st.classSpeed)
	st.classOf = growInt(st.classOf, p)
	for i := 0; i < p; i++ {
		for c := 0; c < k; c++ {
			if st.classSpeed[c] == st.sys.Speeds[i] { //flb:exact see above
				st.classOf[i] = c
				break
			}
		}
	}
	st.classPos = pq.GrowPos(st.classPos, p)
	if cap(st.classPRT) < k {
		st.classPRT = make([]pq.Heap, k)
	} else {
		st.classPRT = st.classPRT[:k]
	}
	for c := 0; c < k; c++ {
		st.classPRT[c].Init(st.classPos)
	}
}

// release drops the references tying the arena to the last run's graph
// and caller-owned schedule, so a pooled arena does not keep them alive.
func (st *flbState) release() {
	st.g = nil
	st.s = nil
	st.bl = nil
	st.sink = nil
	st.ctx = nil
}

// run executes the scheduling loop. The arena must be reset first. The
// only error it can return is a pending st.ctx error (cancellation or an
// exceeded deadline), observed at most 4096 placements after it occurs;
// with a nil ctx it cannot fail.
//
//flb:hotpath
func (st *flbState) run() error {
	n := st.g.NumTasks()
	if st.sink != nil {
		st.sink.Begin(obs.Begin{Kind: obs.KindSchedule, Tasks: n, Procs: st.sys.P})
	}
	if st.hetero {
		for p := 0; p < st.sys.P; p++ {
			st.classPRT[st.classOf[p]].Push(p, pq.Key{Primary: 0})
		}
	} else {
		for p := 0; p < st.sys.P; p++ {
			st.all.Push(p, pq.Key{Primary: 0})
		}
	}
	// Entry tasks have no enabling processor; they are non-EP with LMT 0.
	for _, t := range st.ready.Initial() {
		st.lmt[t] = 0
		st.emt[t] = 0
		st.ep[t] = -1
		st.nonEP.Push(t, pq.Key{Primary: 0, Secondary: st.blKey(t)})
		if st.sink != nil {
			st.sink.TaskReady(obs.TaskReady{Task: t, BL: st.bl[t], EP: -1})
		}
	}

	for iter := 0; iter < n; iter++ {
		// Cancellation poll, amortized to one interface call per 4096
		// placements so it stays invisible next to the O(log) heap work.
		if st.ctx != nil && iter&4095 == 0 {
			if err := st.ctx.Err(); err != nil {
				return err
			}
		}
		t, p, est, ok := st.scheduleTask(iter)
		if !ok {
			// Unreachable on a validated DAG: there is always a ready task.
			panic("core: FLB ran out of ready tasks before scheduling all tasks")
		}
		st.s.Place(t, p, est)
		st.updateTaskLists(p)
		st.updateProcLists(p)
		st.updateReadyTasks(t)
	}
	if st.sink != nil {
		st.sink.End(obs.End{Kind: obs.KindSchedule, Makespan: st.s.Makespan()})
	}
	return nil
}

func growFloat(v []float64, n int) []float64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}

func growProc(v []machine.Proc, n int) []machine.Proc {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]machine.Proc, n)
}

// estEP returns the estimated start time of EP task t on its enabling
// processor p.
//
//flb:hotpath
func (st *flbState) estEP(t int, p machine.Proc) float64 {
	return math.Max(st.emt[t], st.s.PRT(p))
}

// execTime returns the execution time of task t on processor p under the
// system's speed factors (w(t) itself on homogeneous systems).
//
//flb:hotpath
func (st *flbState) execTime(t int, p machine.Proc) float64 {
	return st.sys.ExecTime(st.g.Comp(t), p)
}

// activeKey returns the primary active-heap key of EP task t on its
// enabling processor p: its EST on the homogeneous path (the paper's
// key), its EFT on the related-machines path, where start times alone
// cannot rank processors of different speeds.
//
//flb:hotpath
func (st *flbState) activeKey(t int, p machine.Proc) float64 {
	if st.hetero {
		return st.estEP(t, p) + st.execTime(t, p)
	}
	return st.estEP(t, p)
}

// bestNonEPProc picks the processor for non-EP task t on a related
// machine: the earliest-idle processor of the class minimizing EFT =
// max(LMT(t), PRT) + w(t)/speed. Ties across classes resolve toward the
// faster class (classSpeed is descending and the comparison is strict).
// It returns the processor, the start time there, and the EFT key.
//
//flb:hotpath
func (st *flbState) bestNonEPProc(t int) (machine.Proc, float64, float64) {
	w := st.g.Comp(t)
	lmt := st.lmt[t]
	var bp machine.Proc
	var bestEst float64
	bestEFT := math.Inf(1)
	for c := range st.classPRT {
		p, _, found := st.classPRT[c].Peek()
		if !found {
			continue // unreachable: every processor stays in its class heap
		}
		est := math.Max(lmt, st.s.PRT(p))
		eft := est + w/st.classSpeed[c]
		if eft < bestEFT {
			bp, bestEst, bestEFT = p, est, eft
		}
	}
	return bp, bestEst, bestEFT
}

// blKey returns the secondary heap key implementing the bottom-level
// tie-break (negated: larger bottom level first), or 0 under the ablation.
//
//flb:hotpath
func (st *flbState) blKey(t int) float64 {
	if st.noBL {
		return 0
	}
	return -st.bl[t]
}

// scheduleTask selects and returns the next (task, processor, start time)
// per the paper's ScheduleTask procedure: it compares the best EP-type
// pair against the best non-EP-type pair, preferring the non-EP pair on a
// tie because its communication is already overlapped with computation.
// The comparison key is the start time on the homogeneous path (the
// paper's criterion) and the finish time on the related-machines path,
// where a slow processor's early start can hide a late finish.
//
//flb:hotpath
func (st *flbState) scheduleTask(iter int) (task int, proc machine.Proc, est float64, ok bool) {
	haveEP := false
	var t1 int
	var p1 machine.Proc
	var est1, cmp1 float64
	if p, _, found := st.active.Peek(); found {
		if t, _, found2 := st.emtEP[p].Peek(); found2 {
			haveEP = true
			t1, p1 = t, p
			est1 = st.estEP(t1, p1)
			cmp1 = est1
			if st.hetero {
				cmp1 = est1 + st.execTime(t1, p1)
			}
		}
	}
	haveNonEP := false
	var t2 int
	var p2 machine.Proc
	var est2, cmp2 float64
	if t, _, found := st.nonEP.Peek(); found {
		haveNonEP = true
		t2 = t
		if st.hetero {
			p2, est2, cmp2 = st.bestNonEPProc(t2)
		} else {
			p, _, _ := st.all.Peek()
			p2 = p
			est2 = math.Max(st.lmt[t2], st.s.PRT(p2))
			cmp2 = est2
		}
	}

	//flb:exact start-time tie rule (§4.1): the ablation flips the winner only on bit-identical keys
	epWins := haveEP && (!haveNonEP || cmp1 < cmp2 || (st.preferEP && cmp1 == cmp2))
	chooseEP := false
	switch {
	case epWins:
		// The non-EP pair wins start-time ties (unless the PreferEPOnTie
		// ablation is set), so EP normally requires est1 < est2.
		task, proc, est, ok = t1, p1, est1, true
		chooseEP = true
	case haveNonEP:
		task, proc, est, ok = t2, p2, est2, true
	default:
		return 0, 0, 0, false
	}

	if st.sink != nil {
		st.sink.SchedStep(obs.SchedStep{
			Iter:       iter,
			Task:       task,
			Proc:       int(proc),
			Start:      est,
			Finish:     est + st.execTime(task, proc),
			HaveEP:     haveEP,
			EPTask:     t1,
			EPProc:     int(p1),
			EPStart:    est1,
			HaveNonEP:  haveNonEP,
			NonEPTask:  t2,
			NonEPProc:  int(p2),
			NonEPStart: est2,
			ChoseEP:    chooseEP,
			//flb:exact the Tie flag reports the §4.1 tie rule, which fires only on bit-identical keys
			Tie:         haveEP && haveNonEP && cmp1 == cmp2,
			NonEPLen:    st.nonEP.Len(),
			ActiveProcs: st.active.Len(),
		})
	}

	if chooseEP {
		st.emtEP[p1].Remove(t1)
		st.lmtEP[p1].Remove(t1)
	} else {
		st.nonEP.Remove(task)
	}
	return task, proc, est, ok
}

// updateTaskLists implements the paper's UpdateTaskLists: after p's ready
// time grew, EP tasks enabled by p whose LMT dropped below PRT(p) no
// longer satisfy the EP condition and move to the non-EP list. Tasks are
// tested in LMT order, so the loop stops at the first task still EP.
//
//flb:hotpath
func (st *flbState) updateTaskLists(p machine.Proc) {
	prt := st.s.PRT(p)
	for {
		t, _, found := st.lmtEP[p].Peek()
		if !found || st.lmt[t] >= prt {
			return
		}
		st.lmtEP[p].Remove(t)
		st.emtEP[p].Remove(t)
		st.nonEP.Push(t, pq.Key{Primary: st.lmt[t], Secondary: st.blKey(t)})
		if st.sink != nil {
			st.sink.TaskDemoted(obs.TaskDemoted{Task: t, Proc: int(p), LMT: st.lmt[t]})
		}
	}
}

// updateProcLists implements the paper's UpdateProcLists: refresh p's
// priority in (or remove it from) the active-processor list, and refresh
// its PRT key in the global processor list.
//
//flb:hotpath
func (st *flbState) updateProcLists(p machine.Proc) {
	if t, _, found := st.emtEP[p].Peek(); found {
		st.active.PushOrUpdate(p, pq.Key{Primary: st.activeKey(t, p), Secondary: st.blKey(t)})
	} else {
		st.active.Remove(p)
	}
	if st.hetero {
		st.classPRT[st.classOf[p]].Update(p, pq.Key{Primary: st.s.PRT(p)})
	} else {
		st.all.Update(p, pq.Key{Primary: st.s.PRT(p)})
	}
}

// updateReadyTasks implements the paper's UpdateReadyTasks: classify every
// task made ready by t's placement as EP or non-EP and insert it into the
// corresponding lists, updating the enabling processor's active priority.
//
//flb:hotpath
func (st *flbState) updateReadyTasks(t int) {
	for _, nt := range st.ready.Complete(t) {
		st.classifyReady(nt)
	}
}

// classifyReady computes LMT, EP and EMT for the newly ready task nt and
// files it into the right list.
//
// EMT follows the convention validated against Table 1 (DESIGN.md §5):
// messages from predecessors on the enabling processor cost their
// producer's finish time only. Because FT(pred on p) <= PRT(p), the
// resulting EST = max(EMT, PRT) is identical to the paper's definition.
//
//flb:hotpath
func (st *flbState) classifyReady(nt int) {
	lmt, ep := 0.0, machine.Proc(-1)
	for _, ei := range st.g.PredEdges(nt) {
		e := st.g.Edge(int(ei))
		arrive := st.s.Finish(e.From) + st.sys.RemoteCost(e.Comm)
		p := st.s.Proc(e.From)
		// Last message arrival and its source processor; arrival ties break
		// toward the smaller processor index (DESIGN.md §5, required to
		// reproduce Table 1).
		//flb:exact arrival ties must compare bit-identical finish+comm sums to pick the Table 1 enabling proc
		if arrive > lmt || (arrive == lmt && (ep == -1 || p < ep)) {
			lmt, ep = arrive, p
		}
	}
	st.lmt[nt] = lmt
	st.ep[nt] = ep

	prt := st.s.PRT(ep)
	if lmt < prt {
		// Non-EP type: it cannot start before LMT anywhere, and the
		// enabling processor is busy past LMT.
		st.nonEP.Push(nt, pq.Key{Primary: lmt, Secondary: st.blKey(nt)})
		if st.sink != nil {
			st.sink.TaskReady(obs.TaskReady{Task: nt, LMT: lmt, BL: st.bl[nt], EP: int(ep)})
		}
		return
	}
	// EP type: compute the effective message arrival time on ep.
	emt := 0.0
	for _, ei := range st.g.PredEdges(nt) {
		e := st.g.Edge(int(ei))
		a := st.s.ArrivalTime(e, ep)
		if a > emt {
			emt = a
		}
	}
	st.emt[nt] = emt
	if st.sink != nil {
		st.sink.TaskReady(obs.TaskReady{Task: nt, LMT: lmt, EMT: emt, BL: st.bl[nt], EP: int(ep), IsEP: true})
	}
	st.emtEP[ep].Push(nt, pq.Key{Primary: emt, Secondary: st.blKey(nt)})
	st.lmtEP[ep].Push(nt, pq.Key{Primary: lmt, Secondary: st.blKey(nt)})
	// The enabling processor may have become active, or its best EP task
	// may have changed.
	if head, _, found := st.emtEP[ep].Peek(); found {
		st.active.PushOrUpdate(ep, pq.Key{Primary: st.activeKey(head, ep), Secondary: st.blKey(head)})
	}
}
