package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/schedule"
	"flb/internal/workload"
)

// readyLog keeps every TaskReady event together with each processor's
// ready time at the moment the event was emitted, rebuilt from the
// SchedStep placements that preceded it.
type readyLog struct {
	obs.NopSink
	prt    []float64
	events []obs.TaskReady
	prtAt  []float64 // PRT(EP) when the event fired; 0 for entry tasks
}

func (r *readyLog) Begin(e obs.Begin) { r.prt = make([]float64, e.Procs) }

func (r *readyLog) SchedStep(e obs.SchedStep) {
	r.prt[e.Proc] = math.Max(r.prt[e.Proc], e.Finish)
}

func (r *readyLog) TaskReady(e obs.TaskReady) {
	prt := 0.0
	if e.EP >= 0 {
		prt = r.prt[e.EP]
	}
	r.events = append(r.events, e)
	r.prtAt = append(r.prtAt, prt)
}

// TestReadyClassificationOracle checks every TaskReady event of FLB runs
// against values recomputed from the finished schedule: LMT is the latest
// remote arrival over the predecessors, EP is that arrival's processor
// (the smaller one on equal arrivals, -1 for entry tasks), the EP/non-EP
// split is LMT >= PRT(EP) at classification time, and an EP task's EMT is
// Schedule.DataReady on EP bit for bit. Small integer and zero weights
// make equal arrivals common, so the Table 1 tie rule is exercised.
func TestReadyClassificationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	comms := []machine.CommModel{machine.Clique{}, machine.LatencyBandwidth{Latency: 1, Bandwidth: 2}}
	events := 0
	for trial := 0; trial < 48; trial++ {
		g := workload.GNPDag(rng, 8+rng.Intn(40), 0.05+0.4*rng.Float64())
		for v := 0; v < g.NumTasks(); v++ {
			g.SetComp(v, float64(rng.Intn(4)))
		}
		for i := 0; i < g.NumEdges(); i++ {
			g.SetComm(i, float64(rng.Intn(4)))
		}
		sys := machine.NewSystem([]int{1, 2, 3, 8}[trial%4])
		sys.Comm = comms[(trial/4)%2]
		if trial%6 == 5 {
			sys = machine.NewSystem(4)
			sys.Speeds = machine.CanonicalSpeeds([]float64{2, 1, 1, 0.5})
		}
		log := &readyLog{}
		s, err := FLB{Sink: log}.Schedule(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		if len(log.events) != g.NumTasks() {
			t.Fatalf("trial %d: %d TaskReady events for %d tasks", trial, len(log.events), g.NumTasks())
		}
		for i, e := range log.events {
			where := func() string { return fmt.Sprintf("trial %d (%s, P=%d) t%d", trial, sys.Comm.Name(), sys.P, e.Task) }
			lmt, ep := 0.0, -1
			for _, ei := range g.PredEdges(e.Task) {
				ed := g.Edge(int(ei))
				a := s.Finish(ed.From) + sys.RemoteCost(ed.Comm)
				p := s.Proc(ed.From)
				if ep == -1 || a > lmt || (a == lmt && p < ep) {
					lmt, ep = a, p
				}
			}
			if math.Float64bits(e.LMT) != math.Float64bits(lmt) || e.EP != ep {
				t.Fatalf("%s: LMT %v on EP %d, oracle %v on %d", where(), e.LMT, e.EP, lmt, ep)
			}
			if ep < 0 {
				if e.IsEP {
					t.Fatalf("%s: entry task classified EP", where())
				}
				continue
			}
			if want := lmt >= log.prtAt[i]; e.IsEP != want {
				t.Fatalf("%s: IsEP %v with LMT %v and PRT(EP) %v", where(), e.IsEP, lmt, log.prtAt[i])
			}
			if e.IsEP {
				if want := s.DataReady(e.Task, ep); math.Float64bits(e.EMT) != math.Float64bits(want) {
					t.Fatalf("%s: EMT %v, DataReady on p%d %v", where(), e.EMT, ep, want)
				}
			}
			events++
		}
	}
	if events < 500 {
		t.Fatalf("only %d non-entry events checked", events)
	}
}

// streamHash folds every field of FLB's decision events into an FNV-64a
// hash, floats by their bits, so any change to a decision, a reported
// value or the order of events changes the sum.
type streamHash struct {
	obs.NopSink
	h   hash.Hash64
	buf [8]byte
}

func (sh *streamHash) u(v uint64) {
	binary.LittleEndian.PutUint64(sh.buf[:], v)
	sh.h.Write(sh.buf[:])
}

func (sh *streamHash) i(v int) { sh.u(uint64(int64(v))) }

func (sh *streamHash) f(v float64) { sh.u(math.Float64bits(v)) }

func (sh *streamHash) b(v bool) {
	if v {
		sh.u(1)
	} else {
		sh.u(0)
	}
}

func (sh *streamHash) SchedStep(e obs.SchedStep) {
	sh.u('S')
	sh.i(e.Iter)
	sh.i(e.Task)
	sh.i(e.Proc)
	sh.f(e.Start)
	sh.f(e.Finish)
	sh.b(e.HaveEP)
	sh.i(e.EPTask)
	sh.i(e.EPProc)
	sh.f(e.EPStart)
	sh.b(e.HaveNonEP)
	sh.i(e.NonEPTask)
	sh.i(e.NonEPProc)
	sh.f(e.NonEPStart)
	sh.b(e.ChoseEP)
	sh.b(e.Tie)
	sh.i(e.NonEPLen)
	sh.i(e.ActiveProcs)
}

func (sh *streamHash) TaskReady(e obs.TaskReady) {
	sh.u('R')
	sh.i(e.Task)
	sh.f(e.LMT)
	sh.f(e.EMT)
	sh.f(e.BL)
	sh.i(e.EP)
	sh.b(e.IsEP)
}

func (sh *streamHash) TaskDemoted(e obs.TaskDemoted) {
	sh.u('D')
	sh.i(e.Task)
	sh.i(e.Proc)
	sh.f(e.LMT)
}

// placements folds the finished schedule into the hash: placement order,
// then every task's processor, start and finish.
func (sh *streamHash) placements(s *schedule.Schedule) {
	sh.u('P')
	for _, t := range s.PlacementOrder() {
		sh.i(t)
	}
	for t := 0; t < s.Graph().NumTasks(); t++ {
		sh.i(s.Proc(t))
		sh.f(s.Start(t))
		sh.f(s.Finish(t))
	}
}

// decisionStreamGolden is the hash of TestFLBDecisionStreamGolden's
// corpus, computed before the placement kernel's record heap, one-pass
// EMT and single active refresh were introduced. Those changes are exact,
// so the sum must not move; a change to it is a change to FLB's decisions
// or to its event stream.
const decisionStreamGolden uint64 = 0x8095d6f51efb5ee7

// TestFLBDecisionStreamGolden pins FLB's complete decision stream: every
// placement and every field of every SchedStep, TaskReady and TaskDemoted
// event, in order, over the Fig. 1 graph and LU, Laplace and stencil
// instances (V~300, CCR 0.2 and 5) on 2, 8 and 32 processors and on a
// related machine with three speed classes. It runs through a reused
// Scheduler, so arena reuse across shapes is covered too.
func TestFLBDecisionStreamGolden(t *testing.T) {
	related := machine.NewSystem(8)
	related.Speeds = machine.CanonicalSpeeds([]float64{2, 2, 1.5, 1, 1, 1, 0.5, 0.5})
	systems := []machine.System{machine.NewSystem(2), machine.NewSystem(8), machine.NewSystem(32), related}

	graphs := []*graph.Graph{workload.PaperExample()}
	seed := int64(1)
	for _, fam := range []string{"lu", "laplace", "stencil"} {
		for _, ccr := range []float64{0.2, 5} {
			g, err := workload.Instance(fam, 300, ccr, nil, seed)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
			seed++
		}
	}

	sh := &streamHash{h: fnv.New64a()}
	sc := NewScheduler(FLB{Sink: sh})
	for _, g := range graphs {
		for _, sys := range systems {
			s, err := sc.Schedule(g, sys)
			if err != nil {
				t.Fatal(err)
			}
			sh.placements(s)
		}
	}
	if got := sh.h.Sum64(); got != decisionStreamGolden {
		t.Errorf("decision stream hash = %#016x, want %#016x", got, decisionStreamGolden)
	}
}

// TestCountsMatchMetrics pins Scheduler.Counts to what an obs.Metrics
// sink counts from the same runs' events, over every workload family at
// CCR 0.2 and 5 and the Fig. 1 graph, on 2, 8 and 32 processors and a
// related machine, with the sink attached and without it. Reading the
// counters keeps the observer-off steady state at zero allocations.
func TestCountsMatchMetrics(t *testing.T) {
	related := machine.NewSystem(8)
	related.Speeds = machine.CanonicalSpeeds([]float64{2, 2, 1.5, 1, 1, 1, 0.5, 0.5})
	systems := []machine.System{machine.NewSystem(2), machine.NewSystem(8), machine.NewSystem(32), related}
	graphs := []*graph.Graph{workload.PaperExample()}
	for i, fam := range workload.Families() {
		for _, ccr := range []float64{0.2, 5} {
			g, err := workload.Instance(fam.Name, 300, ccr, nil, int64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	observed, plain := NewScheduler(FLB{}), NewScheduler(FLB{})
	m := obs.NewMetrics()
	observed.Observe(m)
	var total Counts
	for _, g := range graphs {
		for _, sys := range systems {
			m.Reset()
			if _, err := observed.Schedule(g, sys); err != nil {
				t.Fatal(err)
			}
			if _, err := plain.Schedule(g, sys); err != nil {
				t.Fatal(err)
			}
			want := Counts{Steps: m.Steps, EPWins: m.EPWins, Demotions: m.Demotions}
			if got := observed.Counts(); got != want {
				t.Errorf("%s on %d procs: Counts with a sink = %+v, the sink counted %+v", g.Name, sys.P, got, want)
			}
			if got := plain.Counts(); got != want {
				t.Errorf("%s on %d procs: Counts without a sink = %+v, the sink counted %+v", g.Name, sys.P, got, want)
			}
			if m.NonEPWins != want.Steps-want.EPWins {
				t.Errorf("%s on %d procs: %d non-EP wins, want Steps − EPWins = %d", g.Name, sys.P, m.NonEPWins, want.Steps-want.EPWins)
			}
			total.Steps += want.Steps
			total.EPWins += want.EPWins
			total.Demotions += want.Demotions
		}
	}
	if total.EPWins == 0 || total.Demotions == 0 || total.EPWins == total.Steps {
		t.Fatalf("the corpus does not exercise every counter: %+v", total)
	}

	g, sys := graphs[1], machine.NewSystem(8)
	g.Freeze()
	var c Counts
	run := func() {
		if _, err := plain.Schedule(g, sys); err != nil {
			t.Fatal(err)
		}
		c = plain.Counts()
	}
	run()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Errorf("Schedule and Counts without a sink allocate %.1f/run, want 0", n)
	}
	if c.Steps != g.NumTasks() {
		t.Errorf("Counts.Steps = %d, want one per task (%d)", c.Steps, g.NumTasks())
	}
}
