package core

import (
	"testing"

	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/workload"
)

// The zero-allocation property of the scheduling hot path is a measured
// deliverable (ISSUE 1), so it is pinned by regression tests: a reused
// Scheduler arena on a frozen graph must not allocate in steady state,
// and the pooled stateless entry point must stay within the cost of the
// fresh output schedule it hands to the caller.

// steadyStateInstance returns a frozen paper-style workload for the alloc
// budget tests.
func steadyStateInstance(t testing.TB, family string, v int) (sys machine.System, run func() error) {
	t.Helper()
	g, err := workload.Instance(family, v, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	sys = machine.NewSystem(8)
	sc := NewScheduler(FLB{})
	return sys, func() error {
		_, err := sc.Schedule(g, sys)
		return err
	}
}

// TestSchedulerSteadyStateAllocs asserts the tentpole property: a reused
// arena scheduling the same frozen instance repeatedly performs (almost)
// no heap allocations. The budget of 10 allocs/run is the acceptance
// bound from ISSUE 1; the expected value is 0.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	_, run := steadyStateInstance(t, "lu", 500)
	// Warm up: grow every arena slice and memoize the graph's caches.
	for i := 0; i < 2; i++ {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10 {
		t.Errorf("reused Scheduler.Schedule allocates %.1f/run, want <= 10 (target 0)", avg)
	}
}

// TestSchedulerObservedSteadyStateAllocs pins the enabled-observer path:
// a warm arena-backed Recorder attached to a reused Scheduler keeps the
// steady state allocation-free — the event arenas grow once and are
// reused across Reset, so observability costs no garbage either way.
// (The nil-observer case is TestSchedulerSteadyStateAllocs: the sink
// field defaults to nil there, proving the guards add no allocations.)
func TestSchedulerObservedSteadyStateAllocs(t *testing.T) {
	g, err := workload.Instance("lu", 500, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	sys := machine.NewSystem(8)
	sc := NewScheduler(FLB{})
	rec := obs.NewRecorder()
	sc.Observe(rec)
	run := func() {
		rec.Reset()
		if _, err := sc.Schedule(g, sys); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		run()
	}
	avg := testing.AllocsPerRun(20, run)
	if avg > 10 {
		t.Errorf("observed Scheduler.Schedule allocates %.1f/run, want <= 10 (target 0)", avg)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder saw no events")
	}
}

// TestStatelessScheduleAllocBudget bounds the pooled stateless path: its
// steady-state allocations are the caller-owned output schedule (a
// handful of slices plus the amortized growth of the per-processor
// orders), not the O(V) per-run scratch of the seed implementation.
func TestStatelessScheduleAllocBudget(t *testing.T) {
	g, err := workload.Instance("lu", 500, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	sys := machine.NewSystem(8)
	f := FLB{}
	for i := 0; i < 2; i++ {
		if _, err := f.Schedule(g, sys); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := f.Schedule(g, sys); err != nil {
			t.Fatal(err)
		}
	})
	// ~6 schedule slices + ~log-growth appends per processor; 200 leaves
	// headroom for pool churn under GC while still catching any return of
	// the seed's ~1500 allocs/run.
	if avg > 200 {
		t.Errorf("stateless FLB.Schedule allocates %.1f/run, want <= 200", avg)
	}
}

// TestSchedulerReleaseKeepsCapacity: Release drops the arena's graph but
// none of its storage, so scheduling after a Release still allocates
// nothing, and the schedule is the one a fresh arena produces.
func TestSchedulerReleaseKeepsCapacity(t *testing.T) {
	g, err := workload.Instance("lu", 500, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	sys := machine.NewSystem(8)
	want, err := NewScheduler(FLB{}).Schedule(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScheduler(FLB{})
	run := func() {
		s, err := sc.Schedule(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan() != want.Makespan() {
			t.Fatalf("makespan after Release %v, want %v", s.Makespan(), want.Makespan())
		}
		sc.Release()
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("Schedule after Release allocates %.1f/run, want 0", avg)
	}
}
