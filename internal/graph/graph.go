// Package graph implements the task-graph model of the FLB paper: a
// weighted directed acyclic graph G = (V, E) in which nodes are sequential
// tasks with computation costs and edges are dependencies with
// communication costs.
//
// The package provides construction and validation, topological orders,
// the classic level metrics (top level, bottom level, ALAP time, critical
// path), the task-graph width W (both the exact maximum antichain via
// Dilworth's theorem and a cheap upper bound), and a text serialization
// format plus Graphviz DOT export.
//
// Adjacency is stored in CSR (compressed sparse row) form — one offsets
// slice plus one packed edge-index slice per direction, all []uint32 — so
// a task's in/out edges are a contiguous, cache-local window of one array
// instead of a per-task heap allocation, at half the footprint of []int
// indices. PredEdges and SuccEdges hand the windows out as plain slices.
// Frozen graphs additionally memoize the derived data the schedulers
// recompute per run (topological order, bottom levels, entry/exit sets,
// validation), which the benchmark harness exploits by scheduling the
// same instance hundreds of times.
package graph

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// Task is a node of the task graph.
type Task struct {
	// ID is the dense index of the task in its Graph, in [0, NumTasks).
	ID int
	// Name is an optional human-readable label. When no explicit name was
	// given it is left empty in storage and Graph.Task synthesizes the
	// default "tN" on access, so a million-task graph does not carry a
	// million live strings.
	Name string
	// Comp is the computation cost comp(t) >= 0 of executing the task.
	Comp float64
}

// Edge is a dependence (From -> To) with communication cost Comm.
type Edge struct {
	// From and To are task IDs; the edge means To consumes a message
	// produced by From.
	From, To int
	// Comm is the communication cost comm(From, To) >= 0, paid only when
	// the two tasks execute on different processors.
	Comm float64
}

// AdjMode names the CSR index representation. AdjCompact is the only one.
type AdjMode int

// AdjCompact stores CSR offsets and edge indices as []uint32.
const AdjCompact AdjMode = 0

// MaxCSR is the largest task or edge count the []uint32 CSR can index
// (2³²−1, or the largest int where that is smaller). Limits caps parsed
// graphs here; building adjacency for a larger graph panics.
const MaxCSR = min(math.MaxUint32, math.MaxInt)

// Graph is a weighted DAG of tasks. Construct with New or NewWithCapacity,
// then AddTask and AddEdge. Graphs are cheap to copy shallowly but are
// treated as immutable by the scheduling algorithms once built.
type Graph struct {
	// Name is an optional label for the whole graph (workload family etc.).
	Name string

	tasks []Task
	edges []Edge

	// CSR adjacency, built lazily by Freeze/ensureAdj. succOff/predOff
	// have length V+1; succAdj/predAdj pack the edge indices of each
	// task's out/in edges contiguously, in increasing edge-index order (the
	// insertion order, which the schedulers' tie-breaking relies on).
	succOff []uint32
	predOff []uint32
	succAdj []uint32
	predAdj []uint32
	dirty   bool

	// Memoized derived data; see the invalidation rules in mutated and
	// weightsMutated. Lazily computed results are returned by reference,
	// so callers must not modify them.
	memoTopo  []int
	memoBL    []float64
	memoEntry []int
	memoExit  []int
	// validated records a successful Validate. It is atomic so that
	// concurrent read-only use of a frozen graph (the documented contract
	// of Freeze) stays race-free even when the first validation happens
	// after Freeze.
	validated atomic.Bool
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, dirty: true}
}

// NewWithCapacity returns an empty graph with storage for v tasks and e
// edges allocated up front, so that v AddTask and e AddEdge calls perform
// no append growth. Generators and parsers that know their counts use this
// to build million-task graphs with one allocation per array instead of
// O(log V) doublings.
func NewWithCapacity(name string, v, e int) *Graph {
	g := New(name)
	if v > 0 {
		g.tasks = make([]Task, 0, v)
	}
	if e > 0 {
		g.edges = make([]Edge, 0, e)
	}
	return g
}

// mutated invalidates everything derived from the graph structure.
func (g *Graph) mutated() {
	g.dirty = true
	g.memoTopo = nil
	g.memoBL = nil
	g.memoEntry = nil
	g.memoExit = nil
	g.validated.Store(false)
}

// weightsMutated invalidates the derived data that depends on task or
// edge weights but not on the structure (adjacency and orders survive).
func (g *Graph) weightsMutated() {
	g.memoBL = nil
	g.validated.Store(false)
}

// AddTask appends a task with the given computation cost and returns its ID.
// The task gets the default name "tN", synthesized lazily on access. A
// graph of more than MaxCSR tasks cannot be frozen or scheduled: building
// its adjacency panics.
func (g *Graph) AddTask(comp float64) int {
	id := len(g.tasks)
	g.tasks = append(g.tasks, Task{ID: id, Comp: comp})
	g.mutated()
	return id
}

// AddNamedTask appends a task with an explicit name and returns its ID.
func (g *Graph) AddNamedTask(name string, comp float64) int {
	id := g.AddTask(comp)
	g.tasks[id].Name = name
	return id
}

// AddEdge appends a dependence from -> to with the given communication
// cost. Endpoints must already exist. Cycles and duplicate edges are
// detected by Validate, not here. As with AddTask, building adjacency for
// more than MaxCSR edges panics.
func (g *Graph) AddEdge(from, to int, comm float64) {
	if from < 0 || from >= len(g.tasks) || to < 0 || to >= len(g.tasks) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with %d tasks", from, to, len(g.tasks)))
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Comm: comm})
	g.mutated()
}

// NumTasks returns V, the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns E, the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Task returns the task with the given ID. Tasks added without an explicit
// name have their default "tN" name synthesized here (the storage keeps the
// name empty so large generated graphs carry no per-task strings).
func (g *Graph) Task(id int) Task {
	t := g.tasks[id]
	if t.Name == "" {
		t.Name = "t" + strconv.Itoa(id)
	}
	return t
}

// Edge returns the edge with the given index.
//
//flb:hotpath
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Comp returns comp(t) for task id.
//
//flb:hotpath
func (g *Graph) Comp(id int) float64 { return g.tasks[id].Comp }

// SetComp overwrites comp(t) for task id.
func (g *Graph) SetComp(id int, c float64) {
	g.tasks[id].Comp = c
	g.weightsMutated()
}

// SetComm overwrites comm for edge index i.
func (g *Graph) SetComm(i int, c float64) {
	g.edges[i].Comm = c
	g.weightsMutated()
}

// AdjModeInUse builds the adjacency and reports its representation,
// always AdjCompact.
func (g *Graph) AdjModeInUse() AdjMode {
	g.ensureAdj()
	return AdjCompact
}

// ensureAdj builds the CSR adjacency: a counting pass over the edges, a
// prefix sum, and a fill pass that preserves edge-index order within each
// task's window. It panics when V or E exceeds MaxCSR; the parsers' Limits
// refuse such inputs first.
func (g *Graph) ensureAdj() {
	if !g.dirty {
		return
	}
	v, e := len(g.tasks), len(g.edges)
	if uint64(v) > MaxCSR || uint64(e) > MaxCSR {
		panic("graph: V or E exceeds MaxCSR (2^32-1), the limit of the uint32 CSR")
	}
	g.succOff = make([]uint32, v+1) //flb:alloc-ok amortized lazy CSR build, runs once per mutation epoch, not per query
	g.predOff = make([]uint32, v+1) //flb:alloc-ok amortized lazy CSR build, runs once per mutation epoch, not per query
	for _, ed := range g.edges {
		g.succOff[ed.From+1]++
		g.predOff[ed.To+1]++
	}
	for i := 0; i < v; i++ {
		g.succOff[i+1] += g.succOff[i]
		g.predOff[i+1] += g.predOff[i]
	}
	g.succAdj = make([]uint32, e) //flb:alloc-ok amortized lazy CSR build, runs once per mutation epoch, not per query
	g.predAdj = make([]uint32, e) //flb:alloc-ok amortized lazy CSR build, runs once per mutation epoch, not per query
	// next cursors: local copies of the offsets keep the fill a single
	// linear pass.
	nextS := make([]uint32, v) //flb:alloc-ok amortized lazy CSR build, runs once per mutation epoch, not per query
	nextP := make([]uint32, v) //flb:alloc-ok amortized lazy CSR build, runs once per mutation epoch, not per query
	copy(nextS, g.succOff[:v])
	copy(nextP, g.predOff[:v])
	for i, ed := range g.edges {
		g.succAdj[nextS[ed.From]] = uint32(i)
		nextS[ed.From]++
		g.predAdj[nextP[ed.To]] = uint32(i)
		nextP[ed.To]++
	}
	g.dirty = false
}

// succs returns the out-edge window of task id. Adjacency must be built.
//
//flb:hotpath
func (g *Graph) succs(id int) []uint32 {
	return g.succAdj[g.succOff[id]:g.succOff[id+1]:g.succOff[id+1]]
}

// preds returns the in-edge window of task id. Adjacency must be built.
//
//flb:hotpath
func (g *Graph) preds(id int) []uint32 {
	return g.predAdj[g.predOff[id]:g.predOff[id+1]:g.predOff[id+1]]
}

// SuccEdges returns the indices of the out-edges of task id, in
// increasing edge-index order. The window aliases the adjacency and must
// not be modified.
//
//flb:hotpath
func (g *Graph) SuccEdges(id int) []uint32 {
	g.ensureAdj()
	return g.succs(id)
}

// PredEdges returns the indices of the in-edges of task id, in
// increasing edge-index order. The window aliases the adjacency and must
// not be modified.
//
//flb:hotpath
func (g *Graph) PredEdges(id int) []uint32 {
	g.ensureAdj()
	return g.preds(id)
}

// OutDegree returns the number of successors of task id.
func (g *Graph) OutDegree(id int) int {
	g.ensureAdj()
	return int(g.succOff[id+1] - g.succOff[id])
}

// InDegree returns the number of predecessors of task id.
func (g *Graph) InDegree(id int) int {
	g.ensureAdj()
	return int(g.predOff[id+1] - g.predOff[id])
}

// IsEntry reports whether task id has no input edges.
func (g *Graph) IsEntry(id int) bool { return g.InDegree(id) == 0 }

// IsExit reports whether task id has no output edges.
func (g *Graph) IsExit(id int) bool { return g.OutDegree(id) == 0 }

// EntryTasks returns the IDs of all entry tasks in increasing order. The
// returned slice is memoized and must not be modified.
func (g *Graph) EntryTasks() []int {
	g.ensureAdj()
	if g.memoEntry == nil {
		g.memoEntry = []int{} // memoize even when empty
		for id := range g.tasks {
			if g.IsEntry(id) {
				g.memoEntry = append(g.memoEntry, id)
			}
		}
	}
	return g.memoEntry
}

// ExitTasks returns the IDs of all exit tasks in increasing order. The
// returned slice is memoized and must not be modified.
func (g *Graph) ExitTasks() []int {
	g.ensureAdj()
	if g.memoExit == nil {
		g.memoExit = []int{}
		for id := range g.tasks {
			if g.IsExit(id) {
				g.memoExit = append(g.memoExit, id)
			}
		}
	}
	return g.memoExit
}

// TotalComp returns the sum of all computation costs — the sequential
// execution time of the program, used as the numerator of speedup.
func (g *Graph) TotalComp() float64 {
	var s float64
	for _, t := range g.tasks {
		s += t.Comp
	}
	return s
}

// TotalComm returns the sum of all communication costs.
func (g *Graph) TotalComm() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.Comm
	}
	return s
}

// CCR returns the communication-to-computation ratio of the graph: the
// ratio between its average communication cost and its average computation
// cost (paper §2). It returns 0 for a graph with no edges and +Inf for a
// graph whose tasks all have zero cost but which has communication.
func (g *Graph) CCR() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	avgComm := g.TotalComm() / float64(len(g.edges))
	avgComp := g.TotalComp() / float64(len(g.tasks))
	if avgComp == 0 {
		if avgComm == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return avgComm / avgComp
}

// ScaleComm multiplies every communication cost by f.
func (g *Graph) ScaleComm(f float64) {
	for i := range g.edges {
		g.edges[i].Comm *= f
	}
	g.weightsMutated()
}

// SetCCR rescales all communication costs so that CCR() == target.
// It is a no-op on graphs without edges or without computation.
func (g *Graph) SetCCR(target float64) {
	cur := g.CCR()
	if cur == 0 || math.IsInf(cur, 1) {
		return
	}
	g.ScaleComm(target / cur)
}

// Freeze builds the adjacency indexes and — on acyclic graphs — the
// memoized derived data (topological order, bottom levels, entry/exit
// sets, validation) now. A Graph is not safe for concurrent use while
// those caches are first materialized; calling Freeze once (after the
// last AddTask/AddEdge/SetComp/SetComm) makes all read-only methods —
// and therefore every scheduler in this module — safe to run concurrently
// on the same graph, and makes repeated scheduling of the same instance
// skip the O(V+E) recomputation of levels and orders.
func (g *Graph) Freeze() {
	g.ensureAdj()
	g.EntryTasks()
	g.ExitTasks()
	if _, err := g.TopoOrder(); err == nil {
		g.BottomLevels()
		_ = g.Validate() // memoizes success; an invalid graph stays lazy
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := New(g.Name)
	ng.tasks = append([]Task(nil), g.tasks...)
	ng.edges = append([]Edge(nil), g.edges...)
	return ng
}
