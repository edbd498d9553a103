package sim

import (
	"math"
	"math/rand"
	"testing"

	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/schedule"
	"flb/internal/workload"
)

// runFree executes s on the engine with a zero fault plan — the
// fault-free run — and no observer.
func runFree(s *schedule.Schedule, perturbComp, perturbComm Perturb) (*FaultResult, error) {
	return Run(s, fault.Plan{}, perturbComp, perturbComm, 0, nil, nil)
}

// TestExactReproducesScheduleTimes: self-timed execution with exact costs
// must give every task the schedule's own start time... or earlier. For
// list schedules built by appending at EST, starts are exactly equal.
func TestExactReproducesScheduleTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		g := workload.GNPDag(rng, 15+rng.Intn(25), 0.1+0.3*rng.Float64())
		workload.RandomizeWeights(g, rng, nil, []float64{0.2, 1, 5}[rng.Intn(3)])
		s, err := core.FLB{}.Schedule(g, machine.NewSystem(1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runFree(s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < g.NumTasks(); id++ {
			if math.Abs(res.Start[id]-s.Start(id)) > 1e-9 {
				t.Fatalf("trial %d: task %d simulated start %v, scheduled %v",
					trial, id, res.Start[id], s.Start(id))
			}
		}
		if math.Abs(res.Makespan-s.Makespan()) > 1e-9 {
			t.Fatalf("trial %d: simulated makespan %v, scheduled %v",
				trial, res.Makespan, s.Makespan())
		}
	}
}

func TestPaperExampleSimulation(t *testing.T) {
	g := workload.PaperExample()
	s, err := core.FLB{}.Schedule(g, machine.NewSystem(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runFree(s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 14 {
		t.Errorf("makespan = %v, want 14", res.Makespan)
	}
	// Utilization: p0 computes 2+3+2+3+2=12 of 14; p1 computes 2+3+2=7.
	if got := res.Utilization[0]; math.Abs(got-12.0/14) > 1e-9 {
		t.Errorf("util p0 = %v, want %v", got, 12.0/14)
	}
	if got := res.Utilization[1]; math.Abs(got-7.0/14) > 1e-9 {
		t.Errorf("util p1 = %v, want %v", got, 7.0/14)
	}
}

// TestJitterBounds: with ±eps jitter on computation only, the makespan is
// bounded by (1±eps) envelopes of path lengths; sanity: within
// [(1-eps)*exact, huge], and monotone degradation stays plausible.
func TestJitterBounds(t *testing.T) {
	g := workload.LU(10)
	s, err := core.FLB{}.Schedule(g, machine.NewSystem(4))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := runFree(s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const eps = 0.3
	for trial := 0; trial < 20; trial++ {
		res, err := runFree(s, UniformJitter(rng, eps), UniformJitter(rng, eps))
		if err != nil {
			t.Fatal(err)
		}
		// Every cost shrank by at most (1-eps), so no path (and hence the
		// makespan) can fall below (1-eps) * exact.
		if res.Makespan < (1-eps)*exact.Makespan-1e-9 {
			t.Fatalf("trial %d: makespan %v below lower envelope %v",
				trial, res.Makespan, (1-eps)*exact.Makespan)
		}
		// And the start order within a processor is preserved.
		for p := 0; p < s.NumProcs(); p++ {
			tasks := s.TasksOn(p)
			for i := 1; i < len(tasks); i++ {
				if res.Start[tasks[i]] < res.Finish[tasks[i-1]]-1e-9 {
					t.Fatalf("trial %d: overlap on p%d", trial, p)
				}
			}
		}
	}
}

// TestPrecedenceRespectedUnderJitter: simulated starts never precede
// actual message arrivals.
func TestPrecedenceRespectedUnderJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := workload.Stencil(5, 5)
	workload.RandomizeWeights(g, rng, nil, 5)
	s, err := core.FLB{}.Schedule(g, machine.NewSystem(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runFree(s, UniformJitter(rng, 0.5), UniformJitter(rng, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < g.NumTasks(); t2++ {
		for _, ei := range g.PredEdges(t2) {
			e := g.Edge(int(ei))
			if res.Start[t2] < res.Finish[e.From]-1e-9 {
				t.Fatalf("task %d starts before predecessor %d finishes", t2, e.From)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	g := workload.Chain(3)
	s := schedule.New(g, machine.NewSystem(1))
	if _, err := runFree(s, nil, nil); err == nil {
		t.Error("incomplete schedule accepted")
	}
	full, _ := core.FLB{}.Schedule(g, machine.NewSystem(1))
	if _, err := runFree(full, func(float64) float64 { return -1 }, nil); err == nil {
		t.Error("negative perturbed comp accepted")
	}
	if _, err := runFree(full, nil, func(float64) float64 { return math.NaN() }); err == nil {
		t.Error("NaN perturbed comm accepted")
	}
}

// TestDeadlockDetection: a hand-built schedule whose processor order
// contradicts precedence must be reported, not hang.
func TestDeadlockDetection(t *testing.T) {
	g := workload.Chain(2) // 0 -> 1
	s := schedule.New(g, machine.NewSystem(1))
	s.Place(1, 0, 0) // child first on the only processor
	s.Place(0, 0, 1)
	if _, err := runFree(s, nil, nil); err == nil {
		t.Error("precedence-violating order not detected")
	}
}

func TestUniformJitterPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("eps=2 did not panic")
		}
	}()
	UniformJitter(rand.New(rand.NewSource(1)), 2)
}
