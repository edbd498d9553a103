package core

import (
	"math"
	"math/rand"
	"testing"

	"flb/internal/algo"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/schedule"
	"flb/internal/workload"
)

// TestTable1Placements replays the paper's Table 1: FLB on the Fig. 1
// graph with 2 processors must make exactly the paper's ten decisions.
func TestTable1Placements(t *testing.T) {
	g := workload.PaperExample()
	s, err := FLB{}.Schedule(g, machine.NewSystem(2))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		task, proc    int
		start, finish float64
	}{
		{0, 0, 0, 2},
		{1, 1, 3, 5},
		{2, 0, 5, 7},
		{3, 0, 2, 5},
		{4, 1, 5, 8},
		{5, 0, 7, 10},
		{6, 1, 8, 10},
		{7, 0, 12, 14},
	}
	for _, w := range want {
		if s.Proc(w.task) != w.proc || s.Start(w.task) != w.start || s.Finish(w.task) != w.finish {
			t.Errorf("t%d = (p%d, %g-%g), want (p%d, %g-%g)",
				w.task, s.Proc(w.task), s.Start(w.task), s.Finish(w.task),
				w.proc, w.start, w.finish)
		}
	}
	if got := s.Makespan(); got != 14 {
		t.Errorf("makespan = %v, want 14", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTable1Trace checks the trace's list contents against the paper's
// Table 1 columns at every iteration.
func TestTable1Trace(t *testing.T) {
	g := workload.PaperExample()
	var steps []Step
	if _, err := Collect(&steps).Schedule(g, machine.NewSystem(2)); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 8 {
		t.Fatalf("got %d steps, want 8", len(steps))
	}

	type row struct {
		ep0, ep1, non []int // task ids in list order
		task, proc    int
		start         float64
	}
	want := []row{
		{nil, nil, []int{0}, 0, 0, 0},
		{[]int{3, 1, 2}, nil, nil, 3, 0, 2},
		{[]int{2}, nil, []int{1}, 1, 1, 3},
		{[]int{2, 5}, []int{4}, nil, 2, 0, 5},
		{[]int{6}, []int{4}, []int{5}, 4, 1, 5},
		{[]int{6}, nil, []int{5}, 5, 0, 7},
		{nil, nil, []int{6}, 6, 1, 8},
		{[]int{7}, nil, nil, 7, 0, 12},
	}
	ids := func(tv []TaskView) []int {
		out := make([]int, len(tv))
		for i, v := range tv {
			out[i] = v.Task
		}
		return out
	}
	eq := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i, w := range want {
		st := steps[i]
		if st.Iter != i {
			t.Errorf("step %d: Iter = %d", i, st.Iter)
		}
		if !eq(ids(st.EPTasks[0]), w.ep0) {
			t.Errorf("step %d: EP(p0) = %v, want %v", i, ids(st.EPTasks[0]), w.ep0)
		}
		if !eq(ids(st.EPTasks[1]), w.ep1) {
			t.Errorf("step %d: EP(p1) = %v, want %v", i, ids(st.EPTasks[1]), w.ep1)
		}
		if !eq(ids(st.NonEP), w.non) {
			t.Errorf("step %d: nonEP = %v, want %v", i, ids(st.NonEP), w.non)
		}
		if st.Task != w.task || st.Proc != w.proc || st.Start != w.start {
			t.Errorf("step %d: scheduled t%d on p%d at %g, want t%d on p%d at %g",
				i, st.Task, st.Proc, st.Start, w.task, w.proc, w.start)
		}
	}

	// Spot-check the EMT/LMT/BL columns the paper prints.
	// Step 1, head of EP(p0): t3[EMT 2; BL 12 / LMT 3].
	tv := steps[1].EPTasks[0][0]
	if tv.EMT != 2 || tv.BL != 12 || tv.LMT != 3 {
		t.Errorf("step 1 head = %+v, want EMT 2, BL 12, LMT 3", tv)
	}
	// Step 4: t4 on p1 has EMT 5, BL 6, LMT 7; non-EP t5 has LMT 6.
	tv = steps[4].EPTasks[1][0]
	if tv.EMT != 5 || tv.BL != 6 || tv.LMT != 7 {
		t.Errorf("step 4 EP(p1) head = %+v, want EMT 5, BL 6, LMT 7", tv)
	}
	if lmt := steps[4].NonEP[0].LMT; lmt != 6 {
		t.Errorf("step 4 nonEP t5 LMT = %v, want 6", lmt)
	}
	// Step 7: t7[EMT 12; BL 2 / LMT 13].
	tv = steps[7].EPTasks[0][0]
	if tv.EMT != 12 || tv.BL != 2 || tv.LMT != 13 {
		t.Errorf("step 7 head = %+v, want EMT 12, BL 2, LMT 13", tv)
	}
}

func TestFormatTrace(t *testing.T) {
	g := workload.PaperExample()
	var steps []Step
	if _, err := Collect(&steps).Schedule(g, machine.NewSystem(2)); err != nil {
		t.Fatal(err)
	}
	out := FormatTrace(steps, nil)
	for _, want := range []string{
		"t3[2;12/3]",       // step 1 head of p0's EP list
		"t7[12;2/13]",      // final EP task
		"t7 -> p0 [12-14]", // final decision
		"non-EP tasks",
	} {
		if !contains(out, want) {
			t.Errorf("FormatTrace missing %q:\n%s", want, out)
		}
	}
	// Custom name function.
	out = FormatTrace(steps, func(id int) string { return "x" })
	if !contains(out, "x[2;12/3]") {
		t.Errorf("FormatTrace ignored name func:\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestFLBErrors(t *testing.T) {
	g := workload.PaperExample()
	if _, err := (FLB{}).Schedule(g, machine.System{P: 0}); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := (FLB{}).Schedule(graph.New("empty"), machine.NewSystem(2)); err != algo.ErrNoTasks {
		t.Errorf("empty graph error = %v, want ErrNoTasks", err)
	}
	cyc := graph.New("cyc")
	a, b := cyc.AddTask(1), cyc.AddTask(1)
	cyc.AddEdge(a, b, 1)
	cyc.AddEdge(b, a, 1)
	if _, err := (FLB{}).Schedule(cyc, machine.NewSystem(2)); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestFLBSingleProcessor(t *testing.T) {
	g := workload.LU(8)
	s, err := FLB{}.Schedule(g, machine.NewSystem(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// On one processor there is no idle time: makespan == total computation.
	if got, want := s.Makespan(), g.TotalComp(); math.Abs(got-want) > 1e-9 {
		t.Errorf("P=1 makespan = %v, want %v", got, want)
	}
}

func TestFLBIndependentTasksLoadBalance(t *testing.T) {
	// 8 unit tasks, 4 processors: perfect balance, makespan 2.
	g := workload.Independent(8)
	s, err := FLB{}.Schedule(g, machine.NewSystem(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(); got != 2 {
		t.Errorf("makespan = %v, want 2", got)
	}
	for p := 0; p < 4; p++ {
		if got := len(s.TasksOn(p)); got != 2 {
			t.Errorf("processor %d has %d tasks, want 2", p, got)
		}
	}
}

func TestFLBChainStaysOnOneProcessor(t *testing.T) {
	g := workload.Chain(10)
	s, err := FLB{}.Schedule(g, machine.NewSystem(4))
	if err != nil {
		t.Fatal(err)
	}
	// Every task's only message comes from the previous task; moving away
	// would only add communication. FLB must keep the chain local.
	p0 := s.Proc(0)
	for t2 := 1; t2 < 10; t2++ {
		if s.Proc(t2) != p0 {
			t.Fatalf("chain split across processors: t%d on p%d", t2, s.Proc(t2))
		}
	}
	if got, want := s.Makespan(), g.TotalComp(); got != want {
		t.Errorf("chain makespan = %v, want %v", got, want)
	}
}

func TestFLBDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := workload.LayeredRandom(rng, 8, 6, 0.3)
	workload.RandomizeWeights(g, rng, nil, 1.0)
	sys := machine.NewSystem(4)
	a, err := FLB{}.Schedule(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FLB{}.Schedule(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.NumTasks(); id++ {
		if a.Proc(id) != b.Proc(id) || a.Start(id) != b.Start(id) {
			t.Fatalf("nondeterministic placement of task %d", id)
		}
	}
}

// scheduleValid is the per-workload validity harness.
func scheduleValid(t *testing.T, g *graph.Graph, procs ...int) {
	t.Helper()
	for _, p := range procs {
		s, err := FLB{}.Schedule(g, machine.NewSystem(p))
		if err != nil {
			t.Fatalf("%s P=%d: %v", g.Name, p, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s P=%d: %v", g.Name, p, err)
		}
	}
}

func TestFLBValidOnAllWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := []*graph.Graph{
		workload.PaperExample(),
		workload.LU(10),
		workload.Laplace(8),
		workload.Stencil(6, 7),
		workload.FFT(16),
		workload.OutTree(4, 2),
		workload.InTree(4, 2),
		workload.ForkJoin(3, 5),
		workload.Chain(12),
		workload.Independent(13),
		workload.LayeredRandom(rng, 6, 8, 0.25),
		workload.GNPDag(rng, 40, 0.15),
	}
	for _, g := range graphs {
		for _, ccr := range []float64{0, 0.2, 5.0} {
			gg := g.Clone()
			if ccr > 0 {
				workload.RandomizeWeights(gg, rng, nil, ccr)
			}
			scheduleValid(t, gg, 1, 2, 3, 7)
		}
	}
}

// minESTOracle returns the minimum EST over all ready tasks and all
// processors for the partial schedule s — ETF's (and per Theorem 3, FLB's)
// selection value, computed by brute force.
func minESTOracle(g *graph.Graph, s *schedule.Schedule, ready map[int]bool) float64 {
	best := math.Inf(1)
	for t := range ready {
		for p := 0; p < s.NumProcs(); p++ {
			if est := s.EST(t, p); est < best {
				best = est
			}
		}
	}
	return best
}

// TestFLBSelectsGlobalMinEST verifies the paper's Theorem 3 empirically:
// at every iteration, the task FLB schedules starts at the minimum EST
// over all (ready task, processor) pairs.
func TestFLBSelectsGlobalMinEST(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = workload.LayeredRandom(rng, 3+rng.Intn(5), 2+rng.Intn(6), 0.1+0.5*rng.Float64())
		case 1:
			g = workload.GNPDag(rng, 10+rng.Intn(30), 0.05+0.4*rng.Float64())
		case 2:
			g = workload.LU(3 + rng.Intn(7))
		case 3:
			g = workload.Stencil(2+rng.Intn(5), 2+rng.Intn(5))
		}
		workload.RandomizeWeights(g, rng, nil, []float64{0.2, 1, 5}[rng.Intn(3)])
		P := 1 + rng.Intn(5)

		var steps []Step
		_, err := Collect(&steps).Schedule(g, machine.NewSystem(P))
		if err != nil {
			t.Fatal(err)
		}

		// Replay the placements, checking the oracle before each one.
		replica := schedule.New(g, machine.NewSystem(P))
		rt := algo.NewReadyTracker(g)
		ready := map[int]bool{}
		for _, e := range rt.Initial() {
			ready[e] = true
		}
		for i, st := range steps {
			want := minESTOracle(g, replica, ready)
			if math.Abs(st.Start-want) > 1e-9 {
				t.Fatalf("trial %d (%s, P=%d) step %d: FLB started t%d at %v, oracle min EST %v",
					trial, g.Name, P, i, st.Task, st.Start, want)
			}
			if !ready[st.Task] {
				t.Fatalf("trial %d step %d: FLB scheduled non-ready task %d", trial, i, st.Task)
			}
			if got := replica.EST(st.Task, st.Proc); math.Abs(got-st.Start) > 1e-9 {
				t.Fatalf("trial %d step %d: start %v does not match EST %v on chosen proc",
					trial, i, st.Start, got)
			}
			replica.Place(st.Task, st.Proc, st.Start)
			delete(ready, st.Task)
			for _, nt := range rt.Complete(st.Task) {
				ready[nt] = true
			}
		}
		if err := replica.Validate(); err != nil {
			t.Fatalf("trial %d: replica invalid: %v", trial, err)
		}
	}
}

// TestFLBReadySetNeverExceedsWidth validates the paper's §2 claim that at
// any time the number of ready tasks never exceeds the graph width W.
func TestFLBReadySetNeverExceedsWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		g := workload.GNPDag(rng, 8+rng.Intn(25), 0.05+0.4*rng.Float64())
		w := g.Width()
		var steps []Step
		if _, err := Collect(&steps).Schedule(g, machine.NewSystem(1+rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
		for i, st := range steps {
			readyCount := len(st.NonEP)
			for _, l := range st.EPTasks {
				readyCount += len(l)
			}
			if readyCount > w {
				t.Fatalf("trial %d step %d: %d ready tasks exceed width %d", trial, i, readyCount, w)
			}
		}
	}
}

func BenchmarkFLB_LU2000_P32(b *testing.B) {
	g, err := workload.Instance("lu", 2000, 1.0, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys := machine.NewSystem(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FLB{}).Schedule(g, sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Matrix times what the fig2-place workload times: cold
// placements on one reused Scheduler over the Fig. 2 matrix — LU, Laplace
// and stencil at V≈2000 with CCR 0.2 and 5 on P = 2, 4, 8, 16 and 32,
// plus a P = 32 machine whose first half runs twice as fast. An op is one
// round over the 36 cells; ns/task divides it by the tasks placed.
func BenchmarkFig2Matrix(b *testing.B) {
	related := machine.NewSystem(32)
	speeds := make([]float64, 32)
	for i := range speeds {
		speeds[i] = 1
		if i < 16 {
			speeds[i] = 2
		}
	}
	related.Speeds = machine.CanonicalSpeeds(speeds)
	type cell struct {
		g   *graph.Graph
		sys machine.System
	}
	var cells []cell
	tasks := 0
	seed := int64(1)
	for _, fam := range []string{"lu", "laplace", "stencil"} {
		for _, ccr := range []float64{0.2, 5} {
			g, err := workload.Instance(fam, 2000, ccr, nil, seed)
			if err != nil {
				b.Fatal(err)
			}
			seed++
			g.Freeze()
			for _, p := range []int{2, 4, 8, 16, 32} {
				cells = append(cells, cell{g, machine.NewSystem(p)})
			}
			cells = append(cells, cell{g, related})
			tasks += 6 * g.NumTasks()
		}
	}
	sc := NewScheduler(FLB{})
	for _, c := range cells {
		if _, err := sc.Schedule(c.g, c.sys); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := sc.Schedule(c.g, c.sys); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
}

func TestFLBAblationNames(t *testing.T) {
	cases := map[string]FLB{
		"FLB":            {},
		"FLB-nobl":       {NoBLTieBreak: true},
		"FLB-eptie":      {PreferEPOnTie: true},
		"FLB-nobl-eptie": {NoBLTieBreak: true, PreferEPOnTie: true},
	}
	for want, f := range cases {
		if got := f.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// TestFLBAblationsStillSelectGlobalMinEST: the ablation switches only
// change tie-breaking, so Theorem 3 (every placement achieves the global
// minimum EST) must keep holding for both.
func TestFLBAblationsStillSelectGlobalMinEST(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	variants := []FLB{{NoBLTieBreak: true}, {PreferEPOnTie: true}}
	for trial := 0; trial < 20; trial++ {
		g := workload.GNPDag(rng, 12+rng.Intn(20), 0.1+0.3*rng.Float64())
		workload.RandomizeWeights(g, rng, nil, 1.0)
		P := 1 + rng.Intn(4)
		for _, f := range variants {
			var steps []Step
			f.Sink = NewStepRecorder(&steps)
			if _, err := f.Schedule(g, machine.NewSystem(P)); err != nil {
				t.Fatal(err)
			}
			replica := schedule.New(g, machine.NewSystem(P))
			rt := algo.NewReadyTracker(g)
			ready := map[int]bool{}
			for _, e := range rt.Initial() {
				ready[e] = true
			}
			for i, st := range steps {
				want := minESTOracle(g, replica, ready)
				if math.Abs(st.Start-want) > 1e-9 {
					t.Fatalf("%s trial %d step %d: start %v, oracle %v",
						f.Name(), trial, i, st.Start, want)
				}
				replica.Place(st.Task, st.Proc, st.Start)
				delete(ready, st.Task)
				for _, nt := range rt.Complete(st.Task) {
					ready[nt] = true
				}
			}
		}
	}
}

// TestFLBAblationChangesTable1: on the paper example, disabling the
// bottom-level tie-break changes step 1 (t3/t1/t2 all tie on EMT 2; paper
// picks t3 by BL, ID order picks t1), demonstrating the switch works.
func TestFLBAblationChangesTable1(t *testing.T) {
	g := workload.PaperExample()
	s, err := FLB{NoBLTieBreak: true}.Schedule(g, machine.NewSystem(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// With ID-order ties, the second placement is t1, not t3.
	if got := s.PlacementOrder()[1]; got != 1 {
		t.Errorf("second placement = t%d, want t1 under ID ties", got)
	}
}
