package core

import (
	"math/rand"
	"strings"
	"testing"

	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/schedule"
	"flb/internal/workload"
)

// replanProblem builds a frozen random DAG, its cold FLB schedule, and a
// weight-drifted variant touching only tasks at placement positions >= k.
func replanProblem(t *testing.T, seed int64, n, procs, k int) (*graph.Graph, machine.System, *schedule.Schedule, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := workload.GNPDag(rng, n, 0.25)
	workload.RandomizeWeights(g, rng, nil, 1)
	g.Freeze()
	sys := machine.NewSystem(procs)
	base, err := NewScheduler(FLB{}).Schedule(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	drifted := g.Clone()
	for _, tk := range base.PlacementOrder()[k:] {
		drifted.SetComp(tk, g.Comp(tk)*1.5)
	}
	drifted.Freeze()
	return g, sys, base, drifted
}

// recordOf returns s's placement record, the form ReplanSuffix takes.
func recordOf(s *schedule.Schedule) *schedule.Record {
	var r schedule.Record
	r.Fill(s)
	return &r
}

func replanBytes(t *testing.T, s *schedule.Schedule) string {
	t.Helper()
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestReplanSuffixPrefixReplay: positions < k replay base bit-identically
// (task, processor, start), the rest are replanned into a valid schedule.
func TestReplanSuffixPrefixReplay(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		_, sys, base, drifted := replanProblem(t, seed, 40, 4, 20)
		re := NewRescheduler()
		s, err := re.ReplanSuffix(drifted, sys, recordOf(base), 20)
		if err != nil {
			t.Fatal(err)
		}
		if s.Algorithm != "flb-nearhit" {
			t.Fatalf("seed %d: labeled %q, want flb-nearhit", seed, s.Algorithm)
		}
		order := base.PlacementOrder()
		for i, tk := range order[:20] {
			if s.Proc(tk) != base.Proc(tk) || s.Start(tk) != base.Start(tk) {
				t.Errorf("seed %d: replayed position %d (task %d) drifted: proc %d@%g, want %d@%g",
					seed, i, tk, s.Proc(tk), s.Start(tk), base.Proc(tk), base.Start(tk))
			}
		}
		if got := len(s.PlacementOrder()); got != len(order) {
			t.Fatalf("seed %d: replan placed %d of %d tasks", seed, got, len(order))
		}
		if err := s.Validate(); err != nil {
			t.Errorf("seed %d: replanned schedule invalid: %v", seed, err)
		}
	}
}

// TestReplanSuffixDeterministic: any two arenas (fresh or reused) produce
// bit-identical replans — the property the cache's byte-stability
// contract rides on.
func TestReplanSuffixDeterministic(t *testing.T) {
	_, sys, base, drifted := replanProblem(t, 3, 50, 4, 25)
	rec := recordOf(base)
	r1 := NewRescheduler()
	s1, err := r1.ReplanSuffix(drifted, sys, rec, 25)
	if err != nil {
		t.Fatal(err)
	}
	want := replanBytes(t, s1.Clone())
	// A fresh arena.
	s2, err := NewRescheduler().ReplanSuffix(drifted, sys, rec, 25)
	if err != nil {
		t.Fatal(err)
	}
	if replanBytes(t, s2) != want {
		t.Errorf("fresh arena replans differently")
	}
	// The same arena again (history independence).
	s3, err := r1.ReplanSuffix(drifted, sys, rec, 25)
	if err != nil {
		t.Fatal(err)
	}
	if replanBytes(t, s3) != want {
		t.Errorf("reused arena replans differently")
	}
}

// TestReplanSuffixFullReplay: k = n replays the whole base schedule.
func TestReplanSuffixFullReplay(t *testing.T) {
	g, sys, base, _ := replanProblem(t, 4, 30, 3, 30)
	s, err := NewRescheduler().ReplanSuffix(g, sys, recordOf(base), g.NumTasks())
	if err != nil {
		t.Fatal(err)
	}
	for tk := 0; tk < g.NumTasks(); tk++ {
		if s.Proc(tk) != base.Proc(tk) || s.Start(tk) != base.Start(tk) {
			t.Fatalf("full replay drifted at task %d", tk)
		}
	}
}

func TestReplanSuffixErrors(t *testing.T) {
	g, sys, base, drifted := replanProblem(t, 5, 30, 3, 15)
	rec := recordOf(base)
	re := NewRescheduler()
	if _, err := re.ReplanSuffix(drifted, sys, rec, -1); err == nil {
		t.Errorf("negative k accepted")
	}
	if _, err := re.ReplanSuffix(drifted, sys, rec, g.NumTasks()+1); err == nil {
		t.Errorf("k beyond the task count accepted")
	}
	if _, err := re.ReplanSuffix(drifted, machine.NewSystem(5), rec, 15); err == nil {
		t.Errorf("processor-count mismatch accepted")
	}
	bigger := graph.New("bigger")
	for i := 0; i < g.NumTasks()+1; i++ {
		bigger.AddTask(1)
	}
	bigger.Freeze()
	if _, err := re.ReplanSuffix(bigger, sys, rec, 0); err == nil {
		t.Errorf("task-count mismatch accepted")
	}
}

// TestReplanSuffixSteadyStateAllocs: a warm Rescheduler replans a suffix
// without allocating — the output plan, the pending counters and the
// ready heap are arena storage grown on the first call and reused.
func TestReplanSuffixSteadyStateAllocs(t *testing.T) {
	_, sys, base, drifted := replanProblem(t, 6, 200, 4, 50)
	rec := recordOf(base)
	re := NewRescheduler()
	run := func() {
		if _, err := re.ReplanSuffix(drifted, sys, rec, 50); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("warm ReplanSuffix allocates %.1f/run, want 0", avg)
	}
}
