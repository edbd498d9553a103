package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flb/internal/algo/registry"
	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/schedule"
	"flb/internal/workload"
)

// runReference is an independent fault-free self-timed executor: the
// oracle Run must match bit for bit on a zero fault plan. It executes
// schedule s: tasks run on their assigned processors in the scheduled
// per-processor order; each task starts when the previous task on its
// processor has finished and all its messages have arrived, with actual
// computation costs comp(t) -> perturbComp(comp(t)) and message delays
// comm -> perturbComm(comm) (zero stays zero: intra-processor messages
// are free regardless of perturbation).
//
// The simulation is a longest-path computation over the union of the
// precedence edges and the per-processor chains, evaluated in a combined
// topological order, with a FIFO ready queue seeded in task-id order.
// sink, when non-nil, receives the execution timeline bracketed by
// obs.KindSim Begin/End events.
func runReference(s *schedule.Schedule, perturbComp, perturbComm Perturb, sink obs.Sink) (*Result, error) {
	if !s.Complete() {
		return nil, fmt.Errorf("sim: schedule is incomplete")
	}
	if s.HasDuplicates() {
		return nil, fmt.Errorf("sim: duplicated schedules are not supported (self-timed semantics of redundant copies are ambiguous)")
	}
	if perturbComp == nil {
		perturbComp = Exact()
	}
	if perturbComm == nil {
		perturbComm = Exact()
	}
	g := s.Graph()
	sys := s.System()
	n := g.NumTasks()

	// Actual costs, drawn once per task/edge.
	comp := make([]float64, n)
	for t := 0; t < n; t++ {
		comp[t] = perturbComp(g.Comp(t))
		if comp[t] < 0 || math.IsNaN(comp[t]) {
			return nil, fmt.Errorf("sim: perturbed comp(%d) = %v", t, comp[t])
		}
	}
	comm := make([]float64, g.NumEdges())
	for i := range comm {
		comm[i] = perturbComm(g.Edge(i).Comm)
		if comm[i] < 0 || math.IsNaN(comm[i]) {
			return nil, fmt.Errorf("sim: perturbed comm(%d) = %v", i, comm[i])
		}
	}

	// Dependency counting over precedence edges + processor-chain edges.
	pending := make([]int, n)
	prevOnProc := make([]int, n) // predecessor in the processor chain, -1
	nextOnProc := make([]int, n) // successor in the processor chain, -1
	for t := range prevOnProc {
		prevOnProc[t] = -1
		nextOnProc[t] = -1
		pending[t] = g.InDegree(t)
	}
	pos := topoPositions(s)
	for p := 0; p < sys.P; p++ {
		tasks := procChain(s, p, pos)
		for i := 1; i < len(tasks); i++ {
			prevOnProc[tasks[i]] = tasks[i-1]
			nextOnProc[tasks[i-1]] = tasks[i]
			pending[tasks[i]]++
		}
	}

	if sink != nil {
		sink.Begin(obs.Begin{Kind: obs.KindSim, Tasks: n, Procs: sys.P})
	}
	res := &Result{
		Start:       make([]float64, n),
		Finish:      make([]float64, n),
		Utilization: make([]float64, sys.P),
	}
	queue := make([]int, 0, n)
	for t := 0; t < n; t++ {
		if pending[t] == 0 {
			queue = append(queue, t)
		}
	}
	done := 0
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		done++
		start := 0.0
		if pt := prevOnProc[t]; pt >= 0 {
			start = res.Finish[pt]
		}
		for _, ei := range g.PredEdges(t) {
			e := g.Edge(int(ei))
			arrive := res.Finish[e.From]
			if s.Proc(e.From) != s.Proc(t) {
				arrive += sys.CommCost(comm[ei], s.Proc(e.From), s.Proc(t))
			}
			if arrive > start {
				start = arrive
			}
		}
		res.Start[t] = start
		// Perturbation draws on the estimated weight; the speed factor of
		// the executing processor divides the perturbed cost, exactly as
		// the planner divided the estimate (machine.System.ExecTime).
		exec := sys.ExecTime(comp[t], s.Proc(t))
		res.Finish[t] = start + exec
		if res.Finish[t] > res.Makespan {
			res.Makespan = res.Finish[t]
		}
		res.Utilization[s.Proc(t)] += exec
		if sink != nil {
			span := obs.TaskEvent{Task: t, Proc: int(s.Proc(t)), Start: start, Finish: res.Finish[t]}
			sink.TaskStart(span)
			for _, ei := range g.PredEdges(t) {
				e := g.Edge(int(ei))
				if s.Proc(e.From) == s.Proc(t) {
					continue
				}
				send := res.Finish[e.From]
				m := obs.Message{
					Edge: int(ei), From: e.From, To: t,
					FromProc: int(s.Proc(e.From)), ToProc: int(s.Proc(t)),
					Send: send, Arrive: send + sys.CommCost(comm[ei], s.Proc(e.From), s.Proc(t)),
				}
				sink.MessageSend(m)
				sink.MessageArrive(m)
			}
			sink.TaskFinish(span)
		}
		// Release dependents: precedence successors and the next task in
		// the processor chain.
		for _, ei := range g.SuccEdges(t) {
			to := g.Edge(int(ei)).To
			pending[to]--
			if pending[to] == 0 {
				queue = append(queue, to)
			}
		}
		if nt := nextOnProc[t]; nt >= 0 {
			pending[nt]--
			if pending[nt] == 0 {
				queue = append(queue, nt)
			}
		}
	}
	if done != n {
		return nil, fmt.Errorf("sim: deadlock — processor order conflicts with precedence (%d of %d tasks ran)", done, n)
	}
	if res.Makespan > 0 {
		for p := range res.Utilization {
			res.Utilization[p] /= res.Makespan
		}
	}
	if sink != nil {
		sink.End(obs.End{Kind: obs.KindSim, Makespan: res.Makespan})
	}
	return res, nil
}

// maxOracleTasks bounds the DAGs FuzzExecuteOracle decodes.
const maxOracleTasks = 24

// encodeDAG writes g in the byte form decodeDAG reads: one byte for the
// task count, each task's weight as 8 little-endian bytes of its float64
// bits, then per edge its endpoints (one byte each) and its weight.
func encodeDAG(g *graph.Graph) []byte {
	out := []byte{byte(g.NumTasks() - 1)}
	for t := 0; t < g.NumTasks(); t++ {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(g.Comp(t)))
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		out = append(out, byte(e.From), byte(e.To))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(e.Comm))
	}
	return out
}

// decodeDAG reads a graph of at most maxOracleTasks tasks written by
// encodeDAG, dropping self-loops and repeated edges. It reports false
// for inputs that decode to no valid DAG: too short, a weight outside
// [0, 1e9] (NaN included), or a cycle.
func decodeDAG(data []byte) (*graph.Graph, bool) {
	if len(data) == 0 {
		return nil, false
	}
	n := 1 + int(data[0])%maxOracleTasks
	data = data[1:]
	weight := func(b []byte) (float64, bool) {
		w := math.Float64frombits(binary.LittleEndian.Uint64(b))
		return w, w >= 0 && w <= 1e9
	}
	if len(data) < 8*n {
		return nil, false
	}
	g := graph.New("fuzz")
	for t := 0; t < n; t++ {
		w, ok := weight(data[8*t:])
		if !ok {
			return nil, false
		}
		g.AddTask(w)
	}
	seen := make([]bool, n*n)
	for data = data[8*n:]; len(data) >= 10; data = data[10:] {
		from, to := int(data[0])%n, int(data[1])%n
		w, ok := weight(data[2:])
		if !ok {
			return nil, false
		}
		if from == to || seen[from*n+to] {
			continue
		}
		seen[from*n+to] = true
		g.AddEdge(from, to, w)
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, false
	}
	g.Freeze()
	return g, true
}

// taskEvents records, per task, the execution events about it: its span
// and the send/arrive pair of every message it fetched.
type taskEvents struct {
	obs.NopSink
	kinds []obs.Kind
	log   [][]taskEvent
}

type taskEvent struct {
	what string
	span obs.TaskEvent
	msg  obs.Message
}

func newTaskEvents(n int) *taskEvents { return &taskEvents{log: make([][]taskEvent, n)} }

func (r *taskEvents) Begin(e obs.Begin) { r.kinds = append(r.kinds, e.Kind) }
func (r *taskEvents) End(e obs.End)     { r.kinds = append(r.kinds, e.Kind) }
func (r *taskEvents) TaskStart(e obs.TaskEvent) {
	r.log[e.Task] = append(r.log[e.Task], taskEvent{what: "start", span: e})
}
func (r *taskEvents) TaskFinish(e obs.TaskEvent) {
	r.log[e.Task] = append(r.log[e.Task], taskEvent{what: "finish", span: e})
}
func (r *taskEvents) MessageSend(m obs.Message) {
	r.log[m.To] = append(r.log[m.To], taskEvent{what: "send", msg: m})
}
func (r *taskEvents) MessageArrive(m obs.Message) {
	r.log[m.To] = append(r.log[m.To], taskEvent{what: "arrive", msg: m})
}
func (r *taskEvents) MessageRetry(m obs.Message) {
	r.log[m.To] = append(r.log[m.To], taskEvent{what: "retry", msg: m})
}

// checkTaskOrder asserts t's events are its span published before its
// message pairs: start, then send/arrive pairs of one message each, then
// finish.
func checkTaskOrder(t *testing.T, task int, log []taskEvent) {
	t.Helper()
	if len(log) < 2 || log[0].what != "start" || log[len(log)-1].what != "finish" || len(log)%2 != 0 {
		t.Fatalf("task %d: events %+v, want start, message pairs, finish", task, log)
	}
	for i := 1; i+1 < len(log)-1; i += 2 {
		if log[i].what != "send" || log[i+1].what != "arrive" || log[i].msg != log[i+1].msg {
			t.Fatalf("task %d: events %+v, want start, message pairs, finish", task, log)
		}
	}
}

// sameBits reports whether two results are equal bit for bit.
func sameBits(a, b *Result) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan) &&
		eq(a.Start, b.Start) && eq(a.Finish, b.Finish) && eq(a.Utilization, b.Utilization)
}

// FuzzExecuteOracle checks Run at a zero fault plan against runReference:
// fuzz bytes decode into a DAG of at most 24 weighted tasks, a machine of
// at most 6 processors, a registry algorithm and a jitter ε per stream
// with its seed. For every non-duplicating schedule the two executors must
// return bit-identical Results and emit the same events for each task,
// each task's span published before its message pairs.
func FuzzExecuteOracle(f *testing.F) {
	names := registry.Names()
	algIndex := func(name string) uint8 {
		for i, n := range names {
			if n == name {
				return uint8(i)
			}
		}
		panic("unknown algorithm " + name)
	}
	chain := workload.Chain(6)
	forkJoin := workload.ForkJoin(2, 4)
	f.Add(encodeDAG(chain), uint8(1), algIndex("flb"), uint8(0), uint8(0), int64(1))
	f.Add(encodeDAG(forkJoin), uint8(2), algIndex("mcp"), uint8(30), uint8(20), int64(7))
	f.Add(encodeDAG(workload.PaperExample()), uint8(1), algIndex("flb"), uint8(30), uint8(30), int64(7))
	f.Add(encodeDAG(workload.PaperExample()), uint8(2), algIndex("etf"), uint8(0), uint8(0), int64(1))
	// One instance of each workload family near V=20 (FFT's sizes jump
	// from 12 to 32 tasks), with the families' random weights.
	rng := rand.New(rand.NewSource(1))
	for i, g := range []*graph.Graph{
		workload.LU(workload.LUSizeFor(20)),
		workload.Laplace(4),
		workload.Stencil(4, 5),
		workload.FFT(4),
		workload.Cholesky(workload.CholeskySizeFor(20)),
		workload.TriangularSolve(workload.LUSizeFor(20)),
	} {
		if g.NumTasks() > maxOracleTasks {
			f.Fatalf("seed %s has %d tasks, more than %d", g.Name, g.NumTasks(), maxOracleTasks)
		}
		workload.RandomizeWeights(g, rng, nil, 1)
		alg := algIndex([]string{"flb", "mcp", "dls", "hlfet", "lc-llb", "fcp-ls"}[i])
		f.Add(encodeDAG(g), uint8(i), alg, uint8(20), uint8(10), int64(i))
	}
	f.Fuzz(func(t *testing.T, dag []byte, procs, alg, epsComp, epsComm uint8, seed int64) {
		g, ok := decodeDAG(dag)
		if !ok {
			t.Skip("not a DAG of valid weights")
		}
		name := names[int(alg)%len(names)]
		s, err := registry.MustNew(name, seed).Schedule(g, machine.NewSystem(1+int(procs)%6))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.HasDuplicates() {
			t.Skip("duplicating schedule")
		}
		ec, em := float64(epsComp%101)/100, float64(epsComm%101)/100
		jitter := func() (Perturb, Perturb) {
			return UniformJitter(rand.New(rand.NewSource(DeriveSeed(seed, StreamComp))), ec),
				UniformJitter(rand.New(rand.NewSource(DeriveSeed(seed, StreamComm))), em)
		}
		n := g.NumTasks()
		refEvents, runEvents := newTaskEvents(n), newTaskEvents(n)
		pc, pm := jitter()
		want, err := runReference(s, pc, pm, refEvents)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		pc, pm = jitter()
		got, err := Run(s, fault.Plan{}, pc, pm, DeriveSeed(seed, StreamLoss), nil, runEvents)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if !sameBits(&got.Result, want) {
			t.Fatalf("%s: Run differs from the reference:\n got %+v\nwant %+v", name, got.Result, *want)
		}
		if !reflect.DeepEqual(runEvents.kinds, []obs.Kind{obs.KindSim, obs.KindSim}) ||
			!reflect.DeepEqual(refEvents.kinds, runEvents.kinds) {
			t.Fatalf("%s: Begin/End kinds %v, reference %v", name, runEvents.kinds, refEvents.kinds)
		}
		for task := 0; task < n; task++ {
			checkTaskOrder(t, task, runEvents.log[task])
			if !reflect.DeepEqual(runEvents.log[task], refEvents.log[task]) {
				t.Fatalf("%s: task %d events differ:\n got %+v\nwant %+v", name, task, runEvents.log[task], refEvents.log[task])
			}
		}
	})
}
