package flb_test

import (
	"fmt"

	"flb"
)

// ExampleRun schedules a four-task diamond with FLB on two processors.
func ExampleRun() {
	g := flb.NewGraph("diamond")
	a := g.AddNamedTask("a", 2)
	b := g.AddNamedTask("b", 3)
	c := g.AddNamedTask("c", 3)
	d := g.AddNamedTask("d", 2)
	g.AddEdge(a, b, 1)
	g.AddEdge(a, c, 1)
	g.AddEdge(b, d, 1)
	g.AddEdge(c, d, 1)

	s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(2)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("makespan %g\n", s.Makespan())
	fmt.Printf("a on p%d at %g\n", s.Proc(a), s.Start(a))
	// Output:
	// makespan 8
	// a on p0 at 0
}

// ExampleNewStepRecorder reproduces the first and last rows of the
// paper's Table 1 from FLB's decision events.
func ExampleNewStepRecorder() {
	var steps []flb.Step
	s, err := flb.Run(flb.PaperExample(), flb.WithSystem(flb.NewSystem(2)),
		flb.WithObserver(flb.NewStepRecorder(&steps)))
	if err != nil {
		panic(err)
	}
	first, last := steps[0], steps[len(steps)-1]
	fmt.Printf("step 0: t%d -> p%d at %g\n", first.Task, first.Proc, first.Start)
	fmt.Printf("step %d: t%d -> p%d at %g\n", last.Iter, last.Task, last.Proc, last.Start)
	fmt.Printf("makespan %g\n", s.Makespan())
	// Output:
	// step 0: t0 -> p0 at 0
	// step 7: t7 -> p0 at 12
	// makespan 14
}

// ExampleWithAlgorithm compares FLB against the paper's baselines by name.
func ExampleWithAlgorithm() {
	g := flb.PaperExample()
	for _, name := range []string{"flb", "etf", "mcp"} {
		s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(2)), flb.WithAlgorithm(name))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %g\n", s.Algorithm, s.Makespan())
	}
	// Output:
	// FLB: 14
	// ETF: 14
	// MCP: 14
}

// ExampleParseGraph reads the text format.
func ExampleParseGraph() {
	g, err := flb.ParseGraph(`
graph pair
task 0 2 producer
task 1 3 consumer
edge 0 1 1
`)
	if err != nil {
		panic(err)
	}
	fmt.Println(g.Name, g.NumTasks(), g.NumEdges(), g.CriticalPath())
	// Output:
	// pair 2 1 6
}

// ExampleExecute runs a schedule self-timed with jittered costs through
// the options API.
func ExampleExecute() {
	g := flb.PaperExample()
	s, _ := flb.Run(g, flb.WithSystem(flb.NewSystem(2)))
	r, err := flb.Execute(s, flb.WithJitter(0.3, 0.3), flb.WithSeed(7))
	if err != nil {
		panic(err)
	}
	fmt.Printf("planned %g, jittered %.4g\n", s.Makespan(), r.Makespan)
	// Output:
	// planned 14, jittered 13.6
}

// ExampleExecute_faults injects a fail-stop crash and repairs it online
// with the FLB rescheduler.
func ExampleExecute_faults() {
	g := flb.PaperExample()
	s, _ := flb.Run(g, flb.WithSystem(flb.NewSystem(2)))
	plan := flb.FaultPlan{
		Crashes: []flb.Crash{{Proc: 1, Time: 5}},
		Repair:  flb.RepairReschedule,
	}
	r, err := flb.Execute(s, flb.WithFaults(plan))
	if err != nil {
		panic(err)
	}
	fmt.Printf("crashes %d, reschedules %d, makespan %g\n", r.Crashes, r.Reschedules, r.Makespan)
	// Output:
	// crashes 1, reschedules 1, makespan 17
}

// ExampleWithObserver aggregates the event stream of a schedule-and-
// execute round trip into telemetry counters.
func ExampleWithObserver() {
	g := flb.PaperExample()
	tel := flb.NewTelemetry()
	s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(2)), flb.WithObserver(tel))
	if err != nil {
		panic(err)
	}
	if _, err := flb.Execute(s, flb.WithObserver(tel)); err != nil {
		panic(err)
	}
	fmt.Printf("decisions %d (EP wins %d)\n", tel.Steps, tel.EPWins)
	fmt.Printf("executed %d tasks, makespan %g, utilization %.2f\n",
		tel.TasksRun, tel.Makespan, tel.Utilization())
	// Output:
	// decisions 8 (EP wins 4)
	// executed 8 tasks, makespan 14, utilization 0.68
}

// ExampleExecute_exact executes a schedule with exact runtime costs.
func ExampleExecute_exact() {
	g := flb.PaperExample()
	s, _ := flb.Run(g, flb.WithSystem(flb.NewSystem(2)))
	r, err := flb.Execute(s)
	if err != nil {
		panic(err)
	}
	fmt.Printf("planned %g, actual %g\n", s.Makespan(), r.Makespan)
	// Output:
	// planned 14, actual 14
}
