package sim

import (
	"container/heap"
	"fmt"

	"flb/internal/obs"
	"flb/internal/schedule"
)

// Contention-aware execution. The paper's machine model assumes
// "inter-processor communication is performed without contention" (§2);
// this extension executes a static schedule on a network where remote
// messages serialize on shared resources, quantifying how much of the
// planned makespan survives when that assumption is dropped.

// Network selects the contention granularity.
type Network int

const (
	// SharedBus serializes every remote message on one global bus — the
	// harshest model (e.g. single-segment Ethernet).
	SharedBus Network = iota
	// PerLink serializes messages per ordered (source, destination)
	// processor pair — a full crossbar with single-message links.
	PerLink
	// PerPort serializes messages on the sender's network port (one
	// outgoing transfer at a time per processor).
	PerPort
)

// String names the network model.
func (n Network) String() string {
	switch n {
	case SharedBus:
		return "shared-bus"
	case PerLink:
		return "per-link"
	case PerPort:
		return "per-port"
	default:
		return fmt.Sprintf("Network(%d)", int(n))
	}
}

// event is a discrete-event entry: a task completion or message delivery.
type event struct {
	time float64
	kind int // 0 = task finished, 1 = message delivered
	id   int // task id or edge index
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].id < h[j].id
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// RunContended executes schedule s self-timed with exact costs, but with
// remote messages serialized FCFS on the chosen network resource. Each
// remote message occupies its resource for the edge's communication delay
// (under the system's CommModel); messages become eligible when their
// producer finishes and are served in eligibility order (ties broken by
// edge index, deterministically). Task order and placement follow the
// schedule; duplicated schedules are rejected like in Run, and so is a
// Network value outside the three models.
//
// With contention the makespan can only grow relative to Run's; the
// returned Result reports the contended times. sink, when non-nil,
// receives the contended timeline — task spans, plus an obs.MessageSend
// when a remote message wins its network resource and the matching
// obs.MessageArrive at delivery — bracketed by obs.KindSimContended
// Begin/End events. A nil sink adds nothing to the run's cost.
func RunContended(s *schedule.Schedule, net Network, sink obs.Sink) (*Result, error) {
	switch net {
	case SharedBus, PerLink, PerPort:
	default:
		return nil, fmt.Errorf("sim: unknown network model %v", net)
	}
	if !s.Complete() {
		return nil, fmt.Errorf("sim: schedule is incomplete")
	}
	if s.HasDuplicates() {
		return nil, fmt.Errorf("sim: duplicated schedules are not supported")
	}
	g := s.Graph()
	sys := s.System()
	n := g.NumTasks()

	resourceOf := func(ei int) int {
		e := g.Edge(ei)
		from, to := s.Proc(e.From), s.Proc(e.To)
		switch net {
		case PerLink:
			return from*sys.P + to
		case PerPort:
			return from
		}
		return 0 // SharedBus: one global resource
	}
	resourceFree := map[int]float64{}

	// Dependency counters: precedence messages + processor chain.
	pendingMsgs := make([]int, n)
	nextOnProc := make([]int, n)
	prevDone := make([]bool, n)
	started := make([]bool, n)
	for t := 0; t < n; t++ {
		pendingMsgs[t] = g.InDegree(t)
		nextOnProc[t] = -1
		prevDone[t] = true
	}
	pos := topoPositions(s)
	for p := 0; p < sys.P; p++ {
		tasks := procChain(s, p, pos)
		for i := 1; i < len(tasks); i++ {
			nextOnProc[tasks[i-1]] = tasks[i]
			prevDone[tasks[i]] = false
		}
	}

	if sink != nil {
		sink.Begin(obs.Begin{Kind: obs.KindSimContended, Tasks: n, Procs: sys.P})
	}
	res := &Result{
		Start:       make([]float64, n),
		Finish:      make([]float64, n),
		Utilization: make([]float64, sys.P),
	}
	var sendAt []float64 // per edge: transmission begin, for arrival events
	if sink != nil {
		sendAt = make([]float64, g.NumEdges())
	}
	readyAt := make([]float64, n) // max(msg deliveries, prev finish)
	deliver := func(ei int, now float64) {
		to := g.Edge(ei).To
		pendingMsgs[to]--
		if now > readyAt[to] {
			readyAt[to] = now
		}
	}
	var ev eventHeap
	tryStart := func(t int, now float64) {
		if started[t] || pendingMsgs[t] > 0 || !prevDone[t] {
			return
		}
		started[t] = true
		start := readyAt[t]
		if start < now {
			start = now
		}
		res.Start[t] = start
		res.Finish[t] = start + sys.ExecTime(g.Comp(t), s.Proc(t))
		if sink != nil {
			sink.TaskStart(obs.TaskEvent{Task: t, Proc: int(s.Proc(t)), Start: start, Finish: res.Finish[t]})
		}
		heap.Push(&ev, event{time: res.Finish[t], kind: 0, id: t})
	}
	for t := 0; t < n; t++ {
		tryStart(t, 0)
	}
	done := 0
	for ev.Len() > 0 {
		e := heap.Pop(&ev).(event)
		if e.kind == 0 { // task finished
			t := e.id
			done++
			res.Utilization[s.Proc(t)] += sys.ExecTime(g.Comp(t), s.Proc(t))
			if res.Finish[t] > res.Makespan {
				res.Makespan = res.Finish[t]
			}
			if sink != nil {
				sink.TaskFinish(obs.TaskEvent{Task: t, Proc: int(s.Proc(t)), Start: res.Start[t], Finish: res.Finish[t]})
			}
			// Send messages FCFS; local messages deliver instantly.
			for k, se := 0, g.SuccEdges(t); k < se.Len(); k++ {
				ei := se.At(k)
				edge := g.Edge(ei)
				if s.Proc(edge.From) == s.Proc(edge.To) {
					deliver(ei, e.time)
					tryStart(edge.To, e.time)
					continue
				}
				r := resourceOf(ei)
				begin := e.time
				if resourceFree[r] > begin {
					begin = resourceFree[r]
				}
				cost := sys.CommCost(edge.Comm, s.Proc(edge.From), s.Proc(edge.To))
				resourceFree[r] = begin + cost
				if sink != nil {
					sendAt[ei] = begin
					sink.MessageSend(obs.Message{
						Edge: ei, From: edge.From, To: edge.To,
						FromProc: int(s.Proc(edge.From)), ToProc: int(s.Proc(edge.To)),
						Send: begin, Arrive: begin + cost,
					})
				}
				heap.Push(&ev, event{time: begin + cost, kind: 1, id: ei})
			}
			if nt := nextOnProc[t]; nt >= 0 {
				prevDone[nt] = true
				if res.Finish[t] > readyAt[nt] {
					readyAt[nt] = res.Finish[t]
				}
				tryStart(nt, e.time)
			}
		} else { // message delivered
			if sink != nil {
				edge := g.Edge(e.id)
				sink.MessageArrive(obs.Message{
					Edge: e.id, From: edge.From, To: edge.To,
					FromProc: int(s.Proc(edge.From)), ToProc: int(s.Proc(edge.To)),
					Send: sendAt[e.id], Arrive: e.time,
				})
			}
			deliver(e.id, e.time)
			tryStart(g.Edge(e.id).To, e.time)
		}
	}
	if done != n {
		return nil, fmt.Errorf("sim: deadlock under contention (%d of %d tasks ran)", done, n)
	}
	if res.Makespan > 0 {
		for p := range res.Utilization {
			res.Utilization[p] /= res.Makespan
		}
	}
	if sink != nil {
		sink.End(obs.End{Kind: obs.KindSimContended, Makespan: res.Makespan})
	}
	return res, nil
}
