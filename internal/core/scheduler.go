package core

import (
	"context"
	"fmt"
	"sync"

	"flb/internal/algo"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/pq"
	"flb/internal/schedule"
)

// statePool recycles FLB working arenas across the stateless
// FLB.Schedule entry point, so a service scheduling many graphs (or a
// benchmark loop) re-allocates neither heaps nor scratch arrays. Arenas
// grow monotonically to the largest (V, P) they have seen.
var statePool = sync.Pool{New: func() any { return new(flbState) }}

// Scheduler is a reusable FLB arena for callers that schedule in a tight
// loop and can accept a stronger aliasing contract than the stateless
// FLB.Schedule: the returned schedule is owned by the Scheduler and valid
// only until the next Schedule call, and all scratch state (heaps, ready
// tracker, per-task arrays, the output schedule) is reused across calls.
// On frozen graphs the steady-state cost is zero heap allocations.
//
// A Scheduler is not safe for concurrent use; use one per goroutine (the
// bench harness keeps one per worker).
type Scheduler struct {
	cfg FLB
	st  flbState
	out *schedule.Schedule
}

// NewScheduler returns an empty arena running cfg's FLB variant.
func NewScheduler(cfg FLB) *Scheduler {
	return &Scheduler{cfg: cfg}
}

// Name returns the configured variant's display name.
func (sc *Scheduler) Name() string { return sc.cfg.Name() }

// Schedule maps every task of g onto sys, producing the same schedule as
// FLB.Schedule with sc's configuration. The returned schedule is reused:
// it is valid only until the next call on this Scheduler. Callers that
// need to keep it should Clone it.
func (sc *Scheduler) Schedule(g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	return sc.scheduleCtx(nil, g, sys)
}

// ScheduleContext is Schedule with cooperative cancellation, mirroring
// FLB.ScheduleContext: the run loop polls ctx every 4096 placements and
// aborts with a wrapped ctx.Err(). On abort the arena's reused output
// schedule holds a partial placement and must not be read; the next
// Schedule call resets it. A nil ctx behaves exactly like Schedule.
func (sc *Scheduler) ScheduleContext(ctx context.Context, g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	return sc.scheduleCtx(ctx, g, sys)
}

func (sc *Scheduler) scheduleCtx(ctx context.Context, g *graph.Graph, sys machine.System) (*schedule.Schedule, error) {
	if err := algo.CheckInputs(g, sys); err != nil {
		return nil, err
	}
	if sc.out == nil {
		sc.out = schedule.New(g, sys)
	} else {
		sc.out.Reset(g, sys)
	}
	sc.out.Algorithm = sc.cfg.Name()
	sc.st.reset(sc.cfg, g, sys, sc.out)
	sc.st.ctx = ctx
	err := sc.st.run()
	sc.st.ctx = nil
	if err != nil {
		return nil, fmt.Errorf("core: FLB scheduling aborted: %w", err)
	}
	return sc.out, nil
}

// Release drops every reference the arena holds to the last run's graph,
// system and output schedule, keeping all capacity, so an idle arena pins
// none of them. The schedule the last Schedule call returned is invalid
// afterwards; the next Schedule call re-targets the arena as usual.
func (sc *Scheduler) Release() {
	sc.st.release()
	if sc.out != nil {
		sc.out.Release()
	}
}

// Grow pre-sizes the arena for graphs of up to v tasks on systems of up
// to p processors, so a subsequent Schedule call performs its growth
// allocations here instead of interleaved with the scheduling loop —
// at million-task scale that keeps the measured schedule phase free of
// tens of megabytes of demand growth. Sizing is advisory: larger inputs
// still grow the arena on demand, and the output schedule (sized by the
// first scheduled (graph, system) pair) is not covered.
func (sc *Scheduler) Grow(v, p int) {
	sc.st.grow(v, p)
}

// grow pre-extends every capacity-carrying slice and heap of the arena to
// (v tasks, p processors). reset then finds sufficient capacity and
// allocates nothing.
func (st *flbState) grow(v, p int) {
	st.lmt = growFloat(st.lmt, v)
	st.emt = growFloat(st.emt, v)
	st.ep = growProc(st.ep, v)
	st.emtPos = pq.GrowPos(st.emtPos, v)
	st.lmtPos = pq.GrowPos(st.lmtPos, v)
	if cap(st.emtEP) < p {
		emt := make([]pq.Heap, p)
		lmt := make([]pq.Heap, p)
		copy(emt, st.emtEP)
		copy(lmt, st.lmtEP)
		st.emtEP, st.lmtEP = emt, lmt
	}
	st.nonEP.Grow(v)
	st.active.Init(p)
	st.all.Init(p)
	st.grownMark = growBool(st.grownMark, p)
	if cap(st.grown) < p {
		st.grown = make([]machine.Proc, 0, p)
	}
	st.ready.Grow(v)
}

// Observe sets the sink receiving the decision trace of subsequent
// Schedule calls; nil disables observability (the zero-allocation path).
func (sc *Scheduler) Observe(s obs.Sink) { sc.cfg.Sink = s }

// Counts are the decision counters of one FLB run: its placements, the
// ones the EP-type candidate won, and the EP tasks UpdateTaskLists
// demoted to the non-EP list. An obs.Metrics sink counts the same three
// from the run's events as Steps, EPWins and Demotions (NonEPWins is
// Steps − EPWins); the arena keeps them as plain integers, so a caller
// that needs no more than these attaches no sink.
type Counts struct {
	Steps, EPWins, Demotions int
}

// Counts returns the counters of the last Schedule call.
func (sc *Scheduler) Counts() Counts { return sc.st.counts }
