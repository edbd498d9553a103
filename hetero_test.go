package flb_test

import (
	"reflect"
	"testing"

	"flb"
)

// unitSystem spells the homogeneous 8-processor machine the redundant
// way: an explicit all-1.0 speed vector passed straight into the System
// struct, bypassing WithSpeeds' canonicalization. Every entry point must
// treat it exactly like nil Speeds.
func unitSystem(p int) flb.System {
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1
	}
	return flb.System{P: p, Speeds: speeds}
}

// TestUnitSpeedsBitIdentical is the homogeneous-compatibility gate of
// the related-machines extension: for every registered algorithm, an
// explicit all-1.0 speed vector must reproduce the nil-Speeds schedule
// bit for bit — same placements, same times, same makespan.
func TestUnitSpeedsBitIdentical(t *testing.T) {
	g, err := flb.WorkloadInstance("lu", 120, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	for _, name := range flb.Algorithms() {
		nilSpeeds, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithAlgorithm(name), flb.WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		unit, err := flb.Run(g, flb.WithSystem(unitSystem(8)), flb.WithAlgorithm(name), flb.WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameSchedule(t, nilSpeeds, unit)
	}
}

// TestUnitSpeedsBatchBitIdentical extends the gate across the batch
// facade at several worker-pool sizes: parallel scheduling on the
// unit-vector machine must match the nil-Speeds batch job for job.
func TestUnitSpeedsBatchBitIdentical(t *testing.T) {
	var graphs []*flb.Graph
	for seed := int64(1); seed <= 6; seed++ {
		g, err := flb.WorkloadInstance("stencil", 80, 0.2, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		g.Freeze()
		graphs = append(graphs, g)
	}
	for _, workers := range []int{1, 2, 8} {
		want, err := flb.RunBatch(graphs, flb.WithSystem(flb.NewSystem(4)), flb.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got, err := flb.RunBatch(graphs, flb.WithSystem(unitSystem(4)), flb.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range graphs {
			sameSchedule(t, want[i], got[i])
		}
	}
}

// TestUnitSpeedsFaultPathBitIdentical runs the crash-repair pipeline on
// both spellings of the homogeneous machine: the rescheduler's
// crash-as-speed-0 repair must not observe any difference between nil
// Speeds and the explicit unit vector.
func TestUnitSpeedsFaultPathBitIdentical(t *testing.T) {
	g, err := flb.WorkloadInstance("lu", 30, 1, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	run := func(sys flb.System) *flb.ExecResult {
		s, err := flb.Run(g, flb.WithSystem(sys))
		if err != nil {
			t.Fatal(err)
		}
		plan := flb.FaultPlan{Crashes: []flb.Crash{{Proc: 1, Time: s.Makespan() * 0.3}}}
		res, err := flb.Execute(s, flb.WithFaults(plan), flb.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(flb.NewSystem(4))
	got := run(unitSystem(4))
	if !reflect.DeepEqual(want, got) {
		t.Fatal("crash repair differs between nil Speeds and the explicit unit vector")
	}
}

// TestUniformSpeedScaling: on a communication-free graph, a machine with
// all speeds k produces exactly the homogeneous schedule with every time
// divided by k. For k a power of two the division is exact for any
// float64 (only the exponent changes) and IEEE 754 rounding is
// scale-invariant under powers of two, so every intermediate sum — and
// therefore every comparison the scheduler makes — scales without drift.
// The equalities below are exact, not approximate.
func TestUniformSpeedScaling(t *testing.T) {
	g := flb.NewGraph("commfree")
	// A small layered DAG with awkward weights and zero-cost edges.
	weights := []float64{3.7, 1.1, 5.3, 2.9, 4.1, 0.6, 7.7, 2.2, 1.9, 3.3}
	for _, w := range weights {
		g.AddTask(w)
	}
	for _, e := range [][2]int{{0, 3}, {0, 4}, {1, 4}, {1, 5}, {2, 5}, {3, 6}, {4, 6}, {4, 7}, {5, 8}, {6, 9}, {7, 9}, {8, 9}} {
		g.AddEdge(e[0], e[1], 0)
	}
	g.Freeze()

	homo, err := flb.Run(g, flb.WithSystem(flb.NewSystem(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{2, 4, 8, 0.5} {
		sys := flb.System{P: 3, Speeds: []float64{k, k, k}}
		s, err := flb.Run(g, flb.WithSystem(sys))
		if err != nil {
			t.Fatalf("k=%g: %v", k, err)
		}
		if got, want := s.Makespan(), homo.Makespan()/k; got != want {
			t.Errorf("k=%g: makespan = %v, want exactly %v", k, got, want)
		}
		for tk := 0; tk < g.NumTasks(); tk++ {
			if s.Proc(tk) != homo.Proc(tk) {
				t.Fatalf("k=%g: task %d moved from proc %d to %d", k, tk, homo.Proc(tk), s.Proc(tk))
			}
			if s.Start(tk) != homo.Start(tk)/k || s.Finish(tk) != homo.Finish(tk)/k {
				t.Fatalf("k=%g: task %d times (%g,%g), want exactly (%g,%g)", k, tk,
					s.Start(tk), s.Finish(tk), homo.Start(tk)/k, homo.Finish(tk)/k)
			}
		}
	}
}

// TestHeteroAllocBudget extends the steady-state allocation discipline
// to the speed-aware path: repeated scheduling of a frozen instance on a
// skewed machine must reuse the pooled scratch (including the per-class
// heaps) just like the homogeneous path does.
func TestHeteroAllocBudget(t *testing.T) {
	g, err := flb.WorkloadInstance("lu", 200, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	sys := flb.System{P: 8, Speeds: []float64{4, 4, 2, 2, 1, 1, 1, 1}}
	sched := flb.NewScheduler()
	for i := 0; i < 2; i++ {
		if _, err := sched.Schedule(g, sys); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := sched.Schedule(g, sys); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("speed-aware Scheduler allocates %.1f/run on a reused frozen instance, want 0", avg)
	}
}
