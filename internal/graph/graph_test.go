package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// paperGraph builds the Fig. 1 example reconstructed in DESIGN.md.
func paperGraph() *Graph {
	g := New("fig1")
	comps := []float64{2, 2, 2, 3, 3, 3, 2, 2}
	for _, c := range comps {
		g.AddTask(c)
	}
	type e struct {
		from, to int
		comm     float64
	}
	for _, ed := range []e{
		{0, 1, 1}, {0, 2, 4}, {0, 3, 1}, {0, 4, 3},
		{1, 4, 2}, {1, 5, 1}, {3, 5, 1}, {1, 6, 2}, {2, 6, 1},
		{4, 7, 1}, {5, 7, 3}, {6, 7, 2},
	} {
		g.AddEdge(ed.from, ed.to, ed.comm)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := paperGraph()
	if got, want := g.NumTasks(), 8; got != want {
		t.Fatalf("NumTasks = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 12; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if got := g.Task(3); got.Comp != 3 || got.ID != 3 || got.Name != "t3" {
		t.Errorf("Task(3) = %+v", got)
	}
	if got := g.Edge(1); got.From != 0 || got.To != 2 || got.Comm != 4 {
		t.Errorf("Edge(1) = %+v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDegreesAndEntryExit(t *testing.T) {
	g := paperGraph()
	if !g.IsEntry(0) || g.IsEntry(1) {
		t.Error("entry classification wrong")
	}
	if !g.IsExit(7) || g.IsExit(6) {
		t.Error("exit classification wrong")
	}
	if got := g.EntryTasks(); len(got) != 1 || got[0] != 0 {
		t.Errorf("EntryTasks = %v", got)
	}
	if got := g.ExitTasks(); len(got) != 1 || got[0] != 7 {
		t.Errorf("ExitTasks = %v", got)
	}
	if g.OutDegree(0) != 4 || g.InDegree(7) != 3 || g.InDegree(0) != 0 {
		t.Errorf("degrees wrong: out(0)=%d in(7)=%d in(0)=%d",
			g.OutDegree(0), g.InDegree(7), g.InDegree(0))
	}
}

// TestEdgeWindows pins the CSR contract every scheduler walks: each
// task's window lists edge indices in increasing order (the tie-break
// order of DESIGN.md §8), the predecessor windows and the successor
// windows each partition [0, E), and window lengths are the degrees. The
// edges are added in shuffled order, so insertion order and task order
// disagree, and an edge added after the first freeze forces a rebuild.
func TestEdgeWindows(t *testing.T) {
	const v = 12
	g := New("windows")
	for i := 0; i < v; i++ {
		g.AddTask(1)
	}
	var pairs [][2]int
	for a := 0; a < v; a++ {
		for b := a + 1; b < v; b++ {
			if (a*7+b*3)%4 != 0 {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	for _, k := range rand.New(rand.NewSource(1)).Perm(len(pairs)) {
		g.AddEdge(pairs[k][0], pairs[k][1], 1)
	}
	check := func() {
		t.Helper()
		g.Freeze()
		e := g.NumEdges()
		for _, dir := range []struct {
			name     string
			window   func(int) []uint32
			degree   func(int) int
			endpoint func(Edge) int
		}{
			{"pred", g.PredEdges, g.InDegree, func(ed Edge) int { return ed.To }},
			{"succ", g.SuccEdges, g.OutDegree, func(ed Edge) int { return ed.From }},
		} {
			seen := make([]int, e)
			for id := 0; id < v; id++ {
				w := dir.window(id)
				if len(w) != dir.degree(id) {
					t.Errorf("%s window of %d has %d edges, degree %d", dir.name, id, len(w), dir.degree(id))
				}
				// Sorted here plus each edge once (below) is strictly increasing.
				if !slices.IsSorted(w) {
					t.Errorf("%s window of %d not increasing: %v", dir.name, id, w)
				}
				for _, ei := range w {
					if got := dir.endpoint(g.Edge(int(ei))); got != id {
						t.Errorf("%s window of %d holds edge %d of task %d", dir.name, id, ei, got)
					}
					seen[ei]++
				}
			}
			for ei, n := range seen {
				if n != 1 {
					t.Errorf("edge %d is in %d %s windows, want 1", ei, n, dir.name)
				}
			}
		}
	}
	check()
	g.AddEdge(0, v-1, 1)
	check()
}

func TestTotalsAndCCR(t *testing.T) {
	g := paperGraph()
	if got, want := g.TotalComp(), 19.0; got != want {
		t.Errorf("TotalComp = %v, want %v", got, want)
	}
	if got, want := g.TotalComm(), 22.0; got != want {
		t.Errorf("TotalComm = %v, want %v", got, want)
	}
	wantCCR := (22.0 / 12.0) / (19.0 / 8.0)
	if got := g.CCR(); math.Abs(got-wantCCR) > 1e-12 {
		t.Errorf("CCR = %v, want %v", got, wantCCR)
	}
}

func TestSetCCR(t *testing.T) {
	g := paperGraph()
	for _, target := range []float64{0.2, 1.0, 5.0} {
		g.SetCCR(target)
		if got := g.CCR(); math.Abs(got-target) > 1e-9 {
			t.Errorf("SetCCR(%v): CCR = %v", target, got)
		}
	}
	// Graph without edges: no-op, CCR stays 0.
	g2 := New("")
	g2.AddTask(1)
	g2.SetCCR(5)
	if got := g2.CCR(); got != 0 {
		t.Errorf("edgeless CCR = %v, want 0", got)
	}
}

func TestCCREdgeCases(t *testing.T) {
	g := New("zero-comp")
	g.AddTask(0)
	g.AddTask(0)
	g.AddEdge(0, 1, 3)
	if got := g.CCR(); !math.IsInf(got, 1) {
		t.Errorf("CCR with zero comp = %v, want +Inf", got)
	}
	g.SetCCR(1) // must not panic or divide by zero
	g2 := New("zero-both")
	g2.AddTask(0)
	g2.AddTask(0)
	g2.AddEdge(0, 1, 0)
	if got := g2.CCR(); got != 0 {
		t.Errorf("CCR with zero comm and comp = %v, want 0", got)
	}
}

func TestClone(t *testing.T) {
	g := paperGraph()
	c := g.Clone()
	c.SetComp(0, 99)
	c.SetComm(0, 99)
	c.AddTask(1)
	if g.Comp(0) != 2 || g.Edge(0).Comm != 1 || g.NumTasks() != 8 {
		t.Error("Clone is not independent of the original")
	}
	if c.Name != g.Name {
		t.Error("Clone lost the name")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range did not panic")
		}
	}()
	g := New("")
	g.AddTask(1)
	g.AddEdge(0, 1, 0)
}

func TestValidateRejections(t *testing.T) {
	mk := func() *Graph {
		g := New("bad")
		g.AddTask(1)
		g.AddTask(1)
		g.AddEdge(0, 1, 1)
		return g
	}

	g := mk()
	g.edges[0].To = 0 // self loop, bypassing AddEdge's range check
	if err := g.Validate(); err == nil {
		t.Error("self-loop accepted")
	}

	g = mk()
	g.AddEdge(0, 1, 1) // duplicate
	if err := g.Validate(); err == nil {
		t.Error("duplicate edge accepted")
	}

	g = mk()
	g.SetComm(0, -1)
	if err := g.Validate(); err == nil {
		t.Error("negative comm accepted")
	}

	g = mk()
	g.SetComp(0, -1)
	if err := g.Validate(); err == nil {
		t.Error("negative comp accepted")
	}

	g = mk()
	g.AddEdge(1, 0, 1) // cycle 0->1->0
	if err := g.Validate(); err == nil {
		t.Error("cycle accepted")
	}

	g = mk()
	g.edges[0].From = 17
	if err := g.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestMustValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustValidate on cyclic graph did not panic")
		}
	}()
	g := New("")
	g.AddTask(1)
	g.AddTask(1)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 0, 0)
	g.MustValidate()
}

func TestTopoOrder(t *testing.T) {
	g := paperGraph()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != g.NumTasks() {
		t.Fatalf("order has %d tasks, want %d", len(order), g.NumTasks())
	}
	pos := make([]int, g.NumTasks())
	for i, id := range order {
		pos[id] = i
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topological order", e.From, e.To)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New("")
	a, b, c := g.AddTask(1), g.AddTask(1), g.AddTask(1)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, a, 0)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("TopoOrder on cycle: err = %v, want ErrCycle", err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := New("empty")
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
	if order, _ := g.TopoOrder(); len(order) != 0 {
		t.Error("empty graph has non-empty topo order")
	}
	if g.Width() != 0 {
		t.Error("empty graph width != 0")
	}
	if g.TotalComp() != 0 || g.TotalComm() != 0 || g.CCR() != 0 {
		t.Error("empty graph totals wrong")
	}
}
