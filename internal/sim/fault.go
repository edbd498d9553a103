package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/schedule"
)

// Stream identifiers for DeriveSeed: the facade derives one independent
// RNG stream per randomness consumer, so disabling one (epsComp = 0)
// cannot shift the draw sequence of another.
const (
	StreamComp uint64 = 1
	StreamComm uint64 = 2
	StreamLoss uint64 = 3
)

// DeriveSeed expands (seed, stream) into an independent 63-bit seed with
// a splitmix64 round, the standard way to fan one user-facing seed out
// into decorrelated per-stream seeds.
func DeriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// FaultResult is the outcome of one Run. The fault bookkeeping stays zero
// on a fault-free run, where Proc is the schedule's own placement.
type FaultResult struct {
	Result
	// Proc is the processor each task finally executed on. A task that
	// finished before its processor crashed legitimately reports the
	// now-dead processor: its output survives in the checkpoint store.
	Proc []machine.Proc
	// Crashes counts applied failures; Survivors the processors left.
	Crashes   int
	Survivors int
	// Reschedules counts repair invocations. Recomputed counts task
	// executions revoked by crashes: in-flight victims and, without
	// checkpointing, finished outputs lost with the dead processor.
	Reschedules int
	Recomputed  int
	// Retries counts lost-message retransmissions charged to executed
	// fetches; RetryDelay is the total timeout delay they added.
	Retries    int
	RetryDelay float64
}

// RepairChooser picks the repairer for one crash. It sees the crash and
// the number of stranded tasks and may return an error to abort the run
// (flb.Execute under WithContext aborts on context cancellation). A nil
// chooser defaults to the migrate-in-place repairer.
type RepairChooser func(c fault.Crash, todo int) (fault.Repairer, error)

// faultRun is the state of one Run execution: the drawn costs, the
// evolving plan (per-task processor and a global execution order over
// pending tasks), and per-epoch scratch.
type faultRun struct {
	s   *schedule.Schedule
	sys machine.System

	comp  []float64 // actual computation costs
	commw []float64 // actual message weights
	extra []float64 // per-edge retry delay, drawn from the loss stream
	tries []int     // per-edge retransmission count behind extra

	topoPos  []int
	curProc  []machine.Proc
	executed []bool
	order    []int // pending tasks in current execution order
	alive    []bool
	aliveN   int
	done     int

	prevChain  []int
	nextChain  []int
	pendingCnt []int
	queue      []int
	lastOn     []int
	floor      []float64
	rTries     []int     // retransmissions charged when the task executed
	rDelay     []float64 // retry delay charged when the task executed

	res  *FaultResult
	req  fault.Request
	sink obs.Sink
}

// Run executes schedule s self-timed: tasks run on their assigned
// processors in the scheduled per-processor order (planned start time,
// topological rank on ties), and each task starts when the previous task
// on its processor has finished and all its messages have arrived. Actual
// computation costs are comp(t) -> perturbComp(comp(t)) divided by the
// executing processor's speed, and message delays comm ->
// perturbComm(comm) under the system's CommModel (intra-processor
// messages are free regardless of perturbation). Nil perturbations are
// Exact: a fault-free exact run reproduces the start times of a list
// schedule built by appending at EST.
//
// plan injects failures; its zero value is the fault-free run. Execution
// proceeds in epochs: tasks run self-timed (plus per-fetch retry delays
// when messages are lossy, drawn from lossSeed) until the next crash
// time; the crash kills its processor, revokes the task it was running
// (and, with Plan.NoCheckpoint, every finished output pending tasks
// still need from it), and the chooser's repairer remaps the unexecuted
// suffix onto the survivors before execution resumes. A fetch from a
// dead processor is served by the checkpoint store at full remote cost.
// A nil chooser repairs by migrating in place.
//
// sink, when non-nil, receives the execution timeline — per task its
// span (obs.TaskStart) before the MessageSend/MessageArrive pair of every
// charged fetch (with an obs.MessageRetry marker on lossy edges) and its
// obs.TaskFinish — plus an obs.CrashEvent/obs.RepairEvent pair per
// applied failure, bracketed by obs.KindSim Begin/End events.
// Revoked-and-recomputed tasks appear once per execution. A nil sink adds
// nothing to the run's cost; obs.RepairEvent.WallNanos is wall-clock and
// therefore the one nondeterministic value in the stream.
//
// The run is deterministic: the same schedule, plan, perturbations and
// lossSeed produce a byte-identical FaultResult. Duplicated schedules are
// rejected (the self-timed semantics of redundant copies are ambiguous),
// as is a processor order that contradicts precedence. An error is
// returned if every processor crashes.
func Run(s *schedule.Schedule, plan fault.Plan, perturbComp, perturbComm Perturb, lossSeed int64, choose RepairChooser, sink obs.Sink) (*FaultResult, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("sim: schedule is incomplete")
	}
	if s.HasDuplicates() {
		return nil, fmt.Errorf("sim: duplicated schedules are not supported (self-timed semantics of redundant copies are ambiguous)")
	}
	g := s.Graph()
	sys := s.System()
	if err := plan.Validate(sys.P); err != nil {
		return nil, err
	}
	if perturbComp == nil {
		perturbComp = Exact()
	}
	if perturbComm == nil {
		perturbComm = Exact()
	}
	if choose == nil {
		mr := &fault.MigrateRepairer{}
		choose = func(fault.Crash, int) (fault.Repairer, error) { return mr, nil }
	}
	n := g.NumTasks()

	fr := &faultRun{s: s, sys: sys, sink: sink}
	if sink != nil {
		sink.Begin(obs.Begin{Kind: obs.KindSim, Tasks: n, Procs: sys.P})
	}

	// Actual costs, drawn once per task/edge, in task and edge order.
	fr.comp = make([]float64, n)
	for t := 0; t < n; t++ {
		fr.comp[t] = perturbComp(g.Comp(t))
		if fr.comp[t] < 0 || math.IsNaN(fr.comp[t]) {
			return nil, fmt.Errorf("sim: perturbed comp(%d) = %v", t, fr.comp[t])
		}
	}
	fr.commw = make([]float64, g.NumEdges())
	for i := range fr.commw {
		fr.commw[i] = perturbComm(g.Edge(i).Comm)
		if fr.commw[i] < 0 || math.IsNaN(fr.commw[i]) {
			return nil, fmt.Errorf("sim: perturbed comm(%d) = %v", i, fr.commw[i])
		}
	}

	// Retry delays, drawn once per edge from the loss stream. Drawing in
	// edge order here (not at fetch time) keeps the delays independent of
	// execution order and crash placement — the whole run stays
	// deterministic in (plan, lossSeed) alone. A fetch that never crosses
	// processors doesn't pay its edge's delay.
	fr.extra = make([]float64, g.NumEdges())
	fr.tries = make([]int, g.NumEdges())
	if plan.MsgLoss > 0 {
		retry := plan.Retry.Normalized()
		rng := rand.New(rand.NewSource(lossSeed))
		for ei := range fr.extra {
			timeout := retry.Timeout
			for a := 0; a <= retry.MaxRetries && rng.Float64() < plan.MsgLoss; a++ {
				fr.tries[ei]++
				fr.extra[ei] += timeout
				timeout *= retry.Backoff
			}
		}
	}

	fr.topoPos = topoPositions(s)
	fr.curProc = make([]machine.Proc, n)
	for t := 0; t < n; t++ {
		fr.curProc[t] = s.Proc(t)
	}
	// Initial execution order: planned starts, topological rank on ties —
	// its per-processor subsequences are exactly the procChain chains. The
	// comparator is a total order, so the sort's input order cannot change
	// its output; placement order is already nearly sorted by start, which
	// makes the sort cheap.
	fr.order = append(make([]int, 0, n), s.PlacementOrder()...)
	sort.Slice(fr.order, func(i, j int) bool {
		ti, tj := fr.order[i], fr.order[j]
		if s.Start(ti) != s.Start(tj) {
			return s.Start(ti) < s.Start(tj)
		}
		return fr.topoPos[ti] < fr.topoPos[tj]
	})

	fr.executed = make([]bool, n)
	fr.alive = make([]bool, sys.P)
	for p := range fr.alive {
		fr.alive[p] = true
	}
	fr.aliveN = sys.P
	fr.prevChain = make([]int, n)
	fr.nextChain = make([]int, n)
	fr.pendingCnt = make([]int, n)
	fr.queue = make([]int, 0, n)
	fr.lastOn = make([]int, sys.P)
	fr.floor = make([]float64, sys.P)
	fr.rTries = make([]int, n)
	fr.rDelay = make([]float64, n)
	fr.res = &FaultResult{
		Result: Result{
			Start:       make([]float64, n),
			Finish:      make([]float64, n),
			Utilization: make([]float64, sys.P),
		},
	}

	crashes := append([]fault.Crash(nil), plan.Crashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].Time != crashes[j].Time {
			return crashes[i].Time < crashes[j].Time
		}
		return crashes[i].Proc < crashes[j].Proc
	})

	for _, c := range crashes {
		if !fr.alive[c.Proc] {
			continue // fail-stop is idempotent
		}
		fr.runEpoch(c.Time)
		fr.alive[c.Proc] = false
		fr.aliveN--
		fr.res.Crashes++
		if sink != nil {
			sink.Crash(obs.CrashEvent{Proc: c.Proc, Time: c.Time})
		}
		if fr.aliveN == 0 {
			return nil, fmt.Errorf("sim: all %d processors crashed by time %v", sys.P, c.Time)
		}
		fr.revokeLost(c, plan.NoCheckpoint)
		if len(fr.order) > 0 {
			if err := fr.repair(c, choose); err != nil {
				return nil, err
			}
		}
	}
	fr.runEpoch(math.Inf(1))
	if fr.done != n {
		return nil, fmt.Errorf("sim: deadlock — repaired order conflicts with precedence (%d of %d tasks ran)", fr.done, n)
	}

	res := fr.res
	for t := 0; t < n; t++ {
		if res.Finish[t] > res.Makespan {
			res.Makespan = res.Finish[t]
		}
	}
	if res.Makespan > 0 {
		for p := range res.Utilization {
			res.Utilization[p] /= res.Makespan
		}
	}
	res.Proc = fr.curProc
	res.Survivors = fr.aliveN
	if sink != nil {
		sink.End(obs.End{Kind: obs.KindSim, Makespan: res.Makespan})
	}
	return res, nil
}

// runEpoch executes pending tasks self-timed until horizon: a task whose
// computed start time reaches the horizon is parked (not executed, its
// dependents not released) and stays pending for the post-crash repair.
// Chains are rebuilt from the current execution order each epoch, so a
// repair takes effect simply by rewriting fr.order and fr.curProc.
func (fr *faultRun) runEpoch(horizon float64) {
	g := fr.s.Graph()
	for p := range fr.lastOn {
		fr.lastOn[p] = -1
	}
	for _, t := range fr.order {
		p := fr.curProc[t]
		fr.prevChain[t] = fr.lastOn[p]
		if prev := fr.lastOn[p]; prev >= 0 {
			fr.nextChain[prev] = t
		}
		fr.nextChain[t] = -1
		fr.lastOn[p] = t
		cnt := 0
		if fr.prevChain[t] >= 0 {
			cnt++
		}
		if fr.done == 0 {
			// Nothing has executed yet: every input is pending.
			cnt += g.InDegree(t)
		} else {
			for _, ei := range g.PredEdges(t) {
				if !fr.executed[g.Edge(int(ei)).From] {
					cnt++
				}
			}
		}
		fr.pendingCnt[t] = cnt
	}
	fr.queue = fr.queue[:0]
	for _, t := range fr.order {
		if fr.pendingCnt[t] == 0 {
			fr.queue = append(fr.queue, t)
		}
	}
	for qi := 0; qi < len(fr.queue); qi++ {
		t := fr.queue[qi]
		p := fr.curProc[t]
		start := fr.floor[p]
		if pt := fr.prevChain[t]; pt >= 0 {
			start = fr.res.Finish[pt]
		}
		tries, delay := 0, 0.0
		for _, ei := range g.PredEdges(t) {
			e := g.Edge(int(ei))
			arrive := fr.res.Finish[e.From]
			fp := fr.curProc[e.From]
			if !fr.alive[fp] {
				// The output lives only in the checkpoint store: full
				// remote fetch regardless of the consumer's processor.
				arrive += fr.sys.RemoteCost(fr.commw[ei]) + fr.extra[ei]
				tries += fr.tries[ei]
				delay += fr.extra[ei]
			} else if fp != p {
				arrive += fr.sys.CommCost(fr.commw[ei], fp, p) + fr.extra[ei]
				tries += fr.tries[ei]
				delay += fr.extra[ei]
			}
			if arrive > start {
				start = arrive
			}
		}
		if start >= horizon {
			continue // parked: repair will replan it
		}
		fr.executed[t] = true
		fr.done++
		fr.res.Start[t] = start
		// Speed divides the perturbed cost, matching the planner.
		// revoke subtracts the identical quantum: curProc[t] only changes
		// in repair, after any revocation of t's current execution.
		exec := fr.sys.ExecTime(fr.comp[t], p)
		fr.res.Finish[t] = start + exec
		fr.res.Utilization[p] += exec
		fr.rTries[t], fr.rDelay[t] = tries, delay
		fr.res.Retries += tries
		fr.res.RetryDelay += delay
		if fr.sink != nil {
			fr.emitTask(t, p)
		}
		for _, ei := range g.SuccEdges(t) {
			to := g.Edge(int(ei)).To
			fr.pendingCnt[to]--
			if fr.pendingCnt[to] == 0 {
				fr.queue = append(fr.queue, to)
			}
		}
		if nt := fr.nextChain[t]; nt >= 0 {
			fr.pendingCnt[nt]--
			if fr.pendingCnt[nt] == 0 {
				fr.queue = append(fr.queue, nt)
			}
		}
	}
	k := 0
	for _, t := range fr.order {
		if !fr.executed[t] {
			fr.order[k] = t
			k++
		}
	}
	fr.order = fr.order[:k]
}

// emitTask publishes t's execution span and its charged message fetches:
// every fetch paying a communication cost (cross-processor or served by
// the checkpoint store), with retry markers on lossy edges. The span is
// published before its arrivals so timeline exporters can bind flow ends
// to the consumer's slice.
func (fr *faultRun) emitTask(t int, p machine.Proc) {
	g := fr.s.Graph()
	span := obs.TaskEvent{Task: t, Proc: int(p), Start: fr.res.Start[t], Finish: fr.res.Finish[t]}
	fr.sink.TaskStart(span)
	for _, ei := range g.PredEdges(t) {
		e := g.Edge(int(ei))
		fp := fr.curProc[e.From]
		send := fr.res.Finish[e.From]
		var arrive float64
		if !fr.alive[fp] {
			arrive = send + fr.sys.RemoteCost(fr.commw[ei]) + fr.extra[ei]
		} else if fp != p {
			arrive = send + fr.sys.CommCost(fr.commw[ei], fp, p) + fr.extra[ei]
		} else {
			continue
		}
		m := obs.Message{
			Edge: int(ei), From: e.From, To: t,
			FromProc: int(fp), ToProc: int(p),
			Send: send, Arrive: arrive,
			Retries: fr.tries[ei], RetryDelay: fr.extra[ei],
		}
		fr.sink.MessageSend(m)
		fr.sink.MessageArrive(m)
		if fr.tries[ei] > 0 {
			fr.sink.MessageRetry(m)
		}
	}
	fr.sink.TaskFinish(span)
}

// revoke undoes t's execution: the crash destroyed its result before any
// checkpoint could preserve it, so it returns to the pending set and its
// utilization and retry charges are rolled back.
func (fr *faultRun) revoke(t int) {
	fr.executed[t] = false
	fr.done--
	fr.res.Utilization[fr.curProc[t]] -= fr.sys.ExecTime(fr.comp[t], fr.curProc[t])
	fr.res.Retries -= fr.rTries[t]
	fr.res.RetryDelay -= fr.rDelay[t]
	fr.rTries[t], fr.rDelay[t] = 0, 0
	fr.res.Recomputed++
}

// revokeLost revokes the executions the crash of c destroyed: the task
// in flight on the dead processor, and — without checkpointing — every
// finished output resident only there that a pending task still needs
// (cascading in reverse topological order). The merged pending set is
// re-sorted by topological rank: a revoked task may have a predecessor
// that is itself pending (revoked by an earlier crash after this task
// ran), so prepending would not yield a linear extension. The repairer
// invoked right after resequences the order anyway.
func (fr *faultRun) revokeLost(c fault.Crash, noCheckpoint bool) {
	g := fr.s.Graph()
	n := g.NumTasks()
	revoked := make([]int, 0, 4)
	for t := 0; t < n; t++ {
		if fr.executed[t] && fr.curProc[t] == c.Proc && fr.res.Finish[t] > c.Time {
			fr.revoke(t)
			revoked = append(revoked, t)
		}
	}
	if noCheckpoint {
		topo, err := g.TopoOrder()
		if err == nil {
			for i := n - 1; i >= 0; i-- {
				t := topo[i]
				if fr.executed[t] {
					continue
				}
				for _, ei := range g.PredEdges(t) {
					from := g.Edge(int(ei)).From
					if fr.executed[from] && fr.curProc[from] == c.Proc {
						fr.revoke(from)
						revoked = append(revoked, from)
					}
				}
			}
		}
	}
	if len(revoked) == 0 {
		return
	}
	merged := make([]int, 0, len(revoked)+len(fr.order))
	merged = append(merged, revoked...)
	merged = append(merged, fr.order...)
	sort.Slice(merged, func(i, j int) bool { return fr.topoPos[merged[i]] < fr.topoPos[merged[j]] })
	fr.order = merged
}

// repair computes the surviving processors' floors, hands the pending
// suffix to the chooser's repairer, verifies the assignment is complete,
// and adopts the new placement and execution order.
//
//flb:wallclock RepairEvent.WallNanos reports real repair cost to the observer; no simulated quantity depends on it
func (fr *faultRun) repair(c fault.Crash, choose RepairChooser) error {
	g := fr.s.Graph()
	n := g.NumTasks()
	for p := range fr.floor {
		if fr.alive[p] {
			fr.floor[p] = c.Time
		} else {
			fr.floor[p] = 0
		}
	}
	for t := 0; t < n; t++ {
		if fr.executed[t] && fr.alive[fr.curProc[t]] && fr.res.Finish[t] > fr.floor[fr.curProc[t]] {
			fr.floor[fr.curProc[t]] = fr.res.Finish[t]
		}
	}
	fr.req.G = g
	fr.req.Sys = fr.sys
	fr.req.Now = c.Time
	fr.req.Alive = fr.alive
	fr.req.Executed = fr.executed
	fr.req.Finish = fr.res.Finish
	fr.req.Proc = fr.curProc
	fr.req.Floor = fr.floor
	fr.req.Todo = fr.order
	fr.req.ResetOut(n)

	rp, err := choose(c, len(fr.order))
	if err != nil {
		return err
	}
	if rp == nil {
		return fmt.Errorf("sim: repair chooser returned no repairer")
	}
	var began time.Time
	if fr.sink != nil {
		began = time.Now()
	}
	if err := rp.Repair(&fr.req); err != nil {
		return fmt.Errorf("sim: repair after crash of processor %d at %v: %w", c.Proc, c.Time, err)
	}
	if fr.sink != nil {
		fr.sink.Repair(obs.RepairEvent{
			Proc:      c.Proc,
			Time:      c.Time,
			Pending:   len(fr.order),
			WallNanos: time.Since(began).Nanoseconds(),
		})
	}
	if len(fr.req.Seq) != len(fr.order) {
		return fmt.Errorf("sim: repairer assigned %d of %d pending tasks", len(fr.req.Seq), len(fr.order))
	}
	for _, t := range fr.req.Seq {
		fr.curProc[t] = fr.req.NewProc[t]
	}
	fr.order = append(fr.order[:0], fr.req.Seq...)
	fr.res.Reschedules++
	return nil
}
