package core

import (
	"math/rand"
	"testing"

	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/workload"
)

// suffixRequest fabricates a mid-execution repair problem on a frozen
// random DAG: processor `dead` of `procs` has crashed at `now`, tasks
// topologically before a cut are executed, the rest are pending.
func suffixRequest(t *testing.T, seed int64, procs int, dead machine.Proc, now float64) *fault.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := workload.GNPDag(rng, 30, 0.2)
	workload.RandomizeWeights(g, rng, nil, 1)
	g.Freeze()
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumTasks()
	req := &fault.Request{
		G:        g,
		Sys:      machine.NewSystem(procs),
		Now:      now,
		Alive:    make([]bool, procs),
		Executed: make([]bool, n),
		Finish:   make([]float64, n),
		Proc:     make([]machine.Proc, n),
		Floor:    make([]float64, procs),
	}
	for p := 0; p < procs; p++ {
		req.Alive[p] = p != dead
		if p != dead {
			req.Floor[p] = now
		}
	}
	// Execute a topological prefix at fabricated times; the suffix stays
	// pending in topological order (a valid execution order).
	cut := n / 2
	for i, tk := range topo {
		req.Proc[tk] = machine.Proc(i % procs)
		if i < cut {
			req.Executed[tk] = true
			req.Finish[tk] = now * float64(i+1) / float64(cut)
		} else {
			req.Todo = append(req.Todo, tk)
		}
	}
	req.ResetOut(n)
	return req
}

// TestReschedulerAssignsSuffix: every pending task lands exactly once on
// a survivor, in a precedence-valid sequence.
func TestReschedulerAssignsSuffix(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		req := suffixRequest(t, seed, 4, 1, 10)
		re := NewRescheduler()
		if err := re.Repair(req); err != nil {
			t.Fatal(err)
		}
		if len(req.Seq) != len(req.Todo) {
			t.Fatalf("seed %d: assigned %d of %d", seed, len(req.Seq), len(req.Todo))
		}
		assignedAt := make(map[int]int, len(req.Seq))
		for i, tk := range req.Seq {
			if p := req.NewProc[tk]; !req.Alive[p] {
				t.Fatalf("seed %d: task %d on dead processor %d", seed, tk, p)
			}
			assignedAt[tk] = i
		}
		// Seq must order every pending predecessor before its dependents.
		g := req.G
		for _, tk := range req.Seq {
			for _, ei := range g.PredEdges(tk) {
				from := g.Edge(int(ei)).From
				if !req.Executed[from] && assignedAt[from] > assignedAt[tk] {
					t.Fatalf("seed %d: task %d sequenced before its predecessor %d", seed, tk, from)
				}
			}
		}
	}
}

// TestReschedulerDeterministic: identical requests repair identically,
// across separate arenas and across reuses of one arena.
func TestReschedulerDeterministic(t *testing.T) {
	re := NewRescheduler()
	for seed := int64(0); seed < 5; seed++ {
		reqA := suffixRequest(t, seed, 5, 2, 7)
		reqB := suffixRequest(t, seed, 5, 2, 7)
		if err := re.Repair(reqA); err != nil {
			t.Fatal(err)
		}
		if err := NewRescheduler().Repair(reqB); err != nil {
			t.Fatal(err)
		}
		for tk := range reqA.NewProc {
			if reqA.NewProc[tk] != reqB.NewProc[tk] {
				t.Fatalf("seed %d: task %d placed on %d vs %d", seed, tk, reqA.NewProc[tk], reqB.NewProc[tk])
			}
		}
	}
}

// TestReschedulerColdMatchesScheduler: a cold repair (nothing executed,
// floors zero) must reproduce the Scheduler arena's FLB schedule on the
// surviving sub-machine, modulo the survivor index mapping.
func TestReschedulerColdMatchesScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := workload.GNPDag(rng, 40, 0.15)
	workload.RandomizeWeights(g, rng, nil, 1)
	g.Freeze()
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumTasks()
	procs, dead := 4, machine.Proc(1)
	req := &fault.Request{
		G:        g,
		Sys:      machine.NewSystem(procs),
		Alive:    []bool{true, false, true, true},
		Executed: make([]bool, n),
		Finish:   make([]float64, n),
		Proc:     make([]machine.Proc, n),
		Floor:    make([]float64, procs),
		Todo:     topo,
	}
	req.ResetOut(n)
	if err := NewRescheduler().Repair(req); err != nil {
		t.Fatal(err)
	}
	sub, err := NewScheduler(FLB{}).Schedule(g, machine.NewSystem(procs-1))
	if err != nil {
		t.Fatal(err)
	}
	// Survivors in index order are 0, 2, 3: compact index c maps to them.
	procMap := []machine.Proc{0, 2, 3}
	for tk := 0; tk < n; tk++ {
		if want := procMap[sub.Proc(tk)]; req.NewProc[tk] != want {
			t.Fatalf("task %d on %d, want %d (FLB on survivors); dead=%d", tk, req.NewProc[tk], want, dead)
		}
	}
}

// TestReschedulerSteadyStateAllocs: the repair arena must not allocate
// once warm — repairs run inside the simulated execution loop of every
// fault-sweep cell.
func TestReschedulerSteadyStateAllocs(t *testing.T) {
	re := NewRescheduler()
	req := suffixRequest(t, 1, 4, 1, 10)
	n := req.G.NumTasks()
	for i := 0; i < 2; i++ {
		req.ResetOut(n)
		if err := re.Repair(req); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		req.ResetOut(n)
		if err := re.Repair(req); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("suffix repair allocates %.1f/run steady state, want 0", avg)
	}

	// The cold path goes through the embedded Scheduler arena, which is
	// also allocation-free on frozen graphs once warm.
	cold := suffixRequest(t, 2, 4, 1, 10)
	topo, err := cold.G.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	clear(cold.Executed)
	clear(cold.Floor)
	cold.Todo = topo
	for i := 0; i < 2; i++ {
		cold.ResetOut(n)
		if err := re.Repair(cold); err != nil {
			t.Fatal(err)
		}
	}
	avg = testing.AllocsPerRun(50, func() {
		cold.ResetOut(n)
		if err := re.Repair(cold); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("cold repair allocates %.1f/run steady state, want 0", avg)
	}
}
