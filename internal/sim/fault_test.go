package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/schedule"
	"flb/internal/workload"
)

// reschedChooser returns a chooser running the FLB-criterion repairer,
// with the arena shared across crashes like flb.Execute does.
func reschedChooser() RepairChooser {
	re := core.NewRescheduler()
	return func(fault.Crash, int) (fault.Repairer, error) { return re, nil }
}

// randomSchedule builds a random weighted DAG and schedules it with FLB.
func randomSchedule(t *testing.T, rng *rand.Rand, procs int) *schedule.Schedule {
	t.Helper()
	g := workload.GNPDag(rng, 15+rng.Intn(25), 0.1+0.3*rng.Float64())
	workload.RandomizeWeights(g, rng, nil, []float64{0.2, 1, 5}[rng.Intn(3)])
	g.Freeze()
	s, err := core.FLB{}.Schedule(g, machine.NewSystem(procs))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestZeroFaultBitIdentical: with a zero-value plan, Run must embed a
// Result bit-identical to the fault-free reference executor
// (runReference) under the same perturbations — jittered or exact — and
// report the schedule's own placement. This is the acceptance bar that
// makes the zero plan the fault-free run.
func TestZeroFaultBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := randomSchedule(t, rng, 2+rng.Intn(4))
		seed := rng.Int63()
		jitter := func() (Perturb, Perturb) {
			return UniformJitter(rand.New(rand.NewSource(DeriveSeed(seed, StreamComp))), 0.3),
				UniformJitter(rand.New(rand.NewSource(DeriveSeed(seed, StreamComm))), 0.2)
		}
		pc, pm := jitter()
		want, err := runReference(s, pc, pm, nil)
		if err != nil {
			t.Fatal(err)
		}
		pc, pm = jitter()
		got, err := Run(s, fault.Plan{}, pc, pm, DeriveSeed(seed, StreamLoss), reschedChooser(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result, *want) {
			t.Fatalf("trial %d: zero-fault Run differs from the reference", trial)
		}
		for tk, p := range got.Proc {
			if p != s.Proc(tk) {
				t.Fatalf("trial %d: task %d ran on %d, scheduled on %d", trial, tk, p, s.Proc(tk))
			}
		}
		if got.Crashes != 0 || got.Reschedules != 0 || got.Recomputed != 0 || got.Retries != 0 {
			t.Fatalf("trial %d: zero-fault run reports fault activity: %+v", trial, got)
		}
		if got.Survivors != s.NumProcs() {
			t.Fatalf("trial %d: survivors = %d, want %d", trial, got.Survivors, s.NumProcs())
		}
	}
}

// TestFaultyDeterministic: the same schedule, plan, perturbation seeds
// and loss seed must give a byte-identical FaultResult, repair mode
// regardless.
func TestFaultyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		s := randomSchedule(t, rng, 4)
		plan := fault.Plan{
			Crashes: []fault.Crash{
				{Proc: rng.Intn(4), Time: rng.Float64() * s.Makespan()},
				{Proc: rng.Intn(4), Time: rng.Float64() * s.Makespan()},
			},
			MsgLoss: 0.2,
			Retry:   fault.RetryPolicy{Timeout: 0.5, MaxRetries: 2},
		}
		seed := rng.Int63()
		run := func() *FaultResult {
			pc := UniformJitter(rand.New(rand.NewSource(DeriveSeed(seed, StreamComp))), 0.2)
			pm := UniformJitter(rand.New(rand.NewSource(DeriveSeed(seed, StreamComm))), 0.2)
			res, err := Run(s, plan, pc, pm, DeriveSeed(seed, StreamLoss), reschedChooser(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: identical faulty runs differ", trial)
		}
	}
}

// effectiveCrashTime returns the time processor p dies under plan, or
// +Inf if it survives. Only the earliest crash of a processor applies
// (fail-stop is idempotent).
func effectiveCrashTime(plan fault.Plan, p machine.Proc) float64 {
	ct := math.Inf(1)
	for _, c := range plan.Crashes {
		if c.Proc == p && c.Time < ct {
			ct = c.Time
		}
	}
	return ct
}

// TestFaultScenariosYieldValidSchedules is the satellite property test:
// with exact costs and no message loss, every fault scenario must
// produce an executed timetable that (a) runs every task exactly once,
// (b) runs it on a processor alive at its execution time, and (c)
// rebuilds into a schedule.Validate-clean schedule — placements legal,
// no overlap, every precedence respected with at least the planned
// communication delay.
func TestFaultScenariosYieldValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		procs := 3 + rng.Intn(4)
		s := randomSchedule(t, rng, procs)
		g := s.Graph()
		plan := fault.Plan{NoCheckpoint: trial%3 == 0}
		nCrashes := 1 + rng.Intn(3)
		if nCrashes >= procs {
			nCrashes = procs - 1
		}
		perm := rng.Perm(procs)
		for i := 0; i < nCrashes; i++ {
			plan.Crashes = append(plan.Crashes, fault.Crash{
				Proc: perm[i],
				Time: rng.Float64() * s.Makespan() * 1.1,
			})
		}
		var choose RepairChooser
		if trial%2 == 0 {
			choose = reschedChooser()
		} // odd trials: nil chooser = migrate repair
		res, err := Run(s, plan, nil, nil, 0, choose, nil)
		if err != nil {
			t.Fatal(err)
		}

		// (a)+(b): exactly one execution per task, on a processor that was
		// alive when the task ran.
		rebuilt := schedule.New(g, s.System())
		order := make([]int, g.NumTasks())
		for i := range order {
			order[i] = i
		}
		pos := topoPositions(s)
		for tk := 0; tk < g.NumTasks(); tk++ {
			p := res.Proc[tk]
			if p < 0 || p >= procs {
				t.Fatalf("trial %d: task %d on invalid processor %d", trial, tk, p)
			}
			if ct := effectiveCrashTime(plan, p); res.Finish[tk] > ct {
				t.Fatalf("trial %d: task %d finishes at %v on processor %d dead since %v",
					trial, tk, res.Finish[tk], p, ct)
			}
		}
		// (c): rebuild the executed timetable as a schedule and validate.
		// Place panics on double placement, so this also proves exactly-
		// once. Exact costs mean Place's finish (start + comp) matches the
		// simulated finish. Only the checkpointed model rebuilds into a
		// static schedule: a NoCheckpoint recomputation legally re-runs a
		// producer *after* earlier consumers already used its first
		// (destroyed) output, so the final timetable is not a precedence-
		// clean static schedule — which is exactly why checkpoint-on-finish
		// is the default.
		sortByStart(order, res, pos)
		for _, tk := range order {
			rebuilt.Place(tk, res.Proc[tk], res.Start[tk])
		}
		if plan.NoCheckpoint {
			continue
		}
		if err := rebuilt.Validate(); err != nil {
			t.Fatalf("trial %d: rebuilt schedule invalid: %v\n(crashes %v, survivors %d, rescheds %d)",
				trial, err, plan.Crashes, res.Survivors, res.Reschedules)
		}
	}
}

func sortByStart(order []int, res *FaultResult, pos []int) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if res.Start[a] < res.Start[b] || (res.Start[a] == res.Start[b] && pos[a] <= pos[b]) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
}

// TestColdCrashEqualsFLBOnSurvivors: a crash at time zero with the FLB
// repairer is exactly a fresh FLB run on the surviving sub-machine — the
// Scheduler-arena fast path. Makespans must match bit for bit.
func TestColdCrashEqualsFLBOnSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		procs := 3 + rng.Intn(3)
		s := randomSchedule(t, rng, procs)
		dead := rng.Intn(procs)
		plan := fault.Plan{Crashes: []fault.Crash{{Proc: dead, Time: 0}}}
		res, err := Run(s, plan, nil, nil, 0, reschedChooser(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := core.FLB{}.Schedule(s.Graph(), machine.NewSystem(procs-1))
		if err != nil {
			t.Fatal(err)
		}
		subRes, err := runFree(sub, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != subRes.Makespan {
			t.Fatalf("trial %d: cold-crash makespan %v, FLB on %d procs %v",
				trial, res.Makespan, procs-1, subRes.Makespan)
		}
		if res.Reschedules != 1 || res.Recomputed != 0 {
			t.Fatalf("trial %d: reschedules %d recomputed %d, want 1 and 0",
				trial, res.Reschedules, res.Recomputed)
		}
	}
}

// TestLostOutputsRecomputed: without checkpointing, a crash destroys
// finished outputs still needed by pending tasks, and the runtime must
// re-execute the producers elsewhere.
func TestLostOutputsRecomputed(t *testing.T) {
	// Chain 0 -> 1 -> 2 on one processor of two, crash after task 0
	// completes but before task 1 does.
	g := workload.Chain(3)
	g.Freeze()
	sys := machine.NewSystem(2)
	s := schedule.New(g, sys)
	s.Place(0, 0, 0)
	s.Place(1, 0, g.Comp(0))
	s.Place(2, 0, g.Comp(0)+g.Comp(1))
	crash := fault.Plan{
		Crashes:      []fault.Crash{{Proc: 0, Time: g.Comp(0) + g.Comp(1)/2}},
		NoCheckpoint: true,
	}
	res, err := Run(s, crash, nil, nil, 0, reschedChooser(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 was in flight (revoked) and task 0's finished output died
	// with processor 0: both recomputed on processor 1.
	if res.Recomputed != 2 {
		t.Fatalf("Recomputed = %d, want 2", res.Recomputed)
	}
	for tk := 0; tk < 3; tk++ {
		if res.Proc[tk] != 1 {
			t.Fatalf("task %d on processor %d, want 1 (survivor)", tk, res.Proc[tk])
		}
	}

	// With checkpointing (default), task 0's output survives: only the
	// in-flight task 1 is recomputed, and the checkpoint fetch costs the
	// full remote delay.
	crash.NoCheckpoint = false
	res, err = Run(s, crash, nil, nil, 0, reschedChooser(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recomputed != 1 {
		t.Fatalf("checkpointed Recomputed = %d, want 1", res.Recomputed)
	}
	if res.Proc[0] != 0 {
		t.Fatalf("task 0 re-ran on %d despite checkpointing", res.Proc[0])
	}
}

// TestRetryDelaysBounded: lost messages delay fetches by the timeout
// ladder and never beyond it, and a loss-free plan draws nothing.
func TestRetryDelaysBounded(t *testing.T) {
	g := workload.Chain(2)
	g.Freeze()
	sys := machine.NewSystem(2)
	s := schedule.New(g, sys)
	s.Place(0, 0, 0)
	s.Place(1, 1, g.Comp(0)+1) // cross-processor: the fetch can be lost
	exact, err := runFree(s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{
		MsgLoss: 0.9,
		Retry:   fault.RetryPolicy{Timeout: 5, MaxRetries: 2, Backoff: 2},
	}
	sawDelay := false
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(s, plan, nil, nil, seed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		delta := res.Makespan - exact.Makespan
		// Failure ladder: 0, 5, 5+10, 5+10+20.
		valid := false
		for _, want := range []float64{0, 5, 15, 35} {
			if math.Abs(delta-want) < 1e-9 {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("seed %d: retry delay %v not on the timeout ladder", seed, delta)
		}
		if delta > 0 {
			sawDelay = true
			if res.Retries == 0 || res.RetryDelay != delta {
				t.Fatalf("seed %d: delta %v but Retries %d RetryDelay %v", seed, delta, res.Retries, res.RetryDelay)
			}
		}
	}
	if !sawDelay {
		t.Fatal("MsgLoss 0.9 never delayed a fetch across 20 seeds")
	}
}

// TestAllProcessorsCrashed: killing every processor is an error, not a
// hang or a garbage result.
func TestAllProcessorsCrashed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSchedule(t, rng, 2)
	plan := fault.Plan{Crashes: []fault.Crash{{Proc: 0, Time: 0}, {Proc: 1, Time: 0}}}
	_, err := Run(s, plan, nil, nil, 0, reschedChooser(), nil)
	if err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("err = %v, want all-crashed error", err)
	}
}

// TestCrashAfterCompletion: a crash after the last task finished kills
// the processor but has nothing to repair.
func TestCrashAfterCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSchedule(t, rng, 3)
	res, err := Run(s, fault.Plan{
		Crashes: []fault.Crash{{Proc: 1, Time: s.Makespan() * 10}},
	}, nil, nil, 0, reschedChooser(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Survivors != 2 || res.Reschedules != 0 {
		t.Fatalf("crashes %d survivors %d rescheds %d, want 1/2/0", res.Crashes, res.Survivors, res.Reschedules)
	}
	exact, err := runFree(s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != exact.Makespan {
		t.Fatalf("late crash changed makespan: %v vs %v", res.Makespan, exact.Makespan)
	}
}
