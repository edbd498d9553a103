package schedule

import (
	"math"
	"slices"
	"testing"

	"flb/internal/graph"
	"flb/internal/machine"
)

// listSchedule places g's tasks in id order (topological for the graphs
// here), each on the processor with the earliest finish.
func listSchedule(g *graph.Graph, sys machine.System) *Schedule {
	s := New(g, sys)
	s.Algorithm = "list"
	for t := 0; t < g.NumTasks(); t++ {
		bp := 0
		for p := 1; p < sys.P; p++ {
			if s.EFT(t, p) < s.EFT(t, bp) {
				bp = p
			}
		}
		s.Place(t, bp, s.EST(t, bp))
	}
	return s
}

// chain returns an n-task chain with unit weights.
func chain(n int) *graph.Graph {
	g := graph.New("chain")
	for i := 0; i < n; i++ {
		g.AddTask(1)
		if i > 0 {
			g.AddEdge(i-1, i, 1)
		}
	}
	return g
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRecordReplayBitIdentical: a replayed record reproduces every field
// Place derives — placements, start and finish times, per-processor
// orders, processor ready times and placement order — bit for bit, on a
// homogeneous clique and on a related machine with a latency-bandwidth
// network.
func TestRecordReplayBitIdentical(t *testing.T) {
	g := fig1()
	related := machine.System{
		P:      3,
		Comm:   machine.LatencyBandwidth{Latency: 0.5, Bandwidth: 3},
		Speeds: machine.CanonicalSpeeds([]float64{1.5, 1, 0.75}),
	}
	for _, s := range []*Schedule{paperSchedule(g), listSchedule(g, related)} {
		var r Record
		r.Fill(s)
		n := g.NumTasks()
		if r.Len() != n || r.NumProcs() != s.NumProcs() || r.Bytes() != n*StepBytes {
			t.Fatalf("%s: record has %d steps, P=%d, %d B; want %d, %d, %d", s.Algorithm, r.Len(), r.NumProcs(), r.Bytes(), n, s.NumProcs(), n*StepBytes)
		}
		got := r.Replay(g, s.System())
		if got.Algorithm != s.Algorithm || !got.Complete() || got.Graph() != g {
			t.Fatalf("%s: replay labeled %q, complete %v", s.Algorithm, got.Algorithm, got.Complete())
		}
		for tk := 0; tk < n; tk++ {
			if got.Proc(tk) != s.Proc(tk) || !sameBits(got.Start(tk), s.Start(tk)) || !sameBits(got.Finish(tk), s.Finish(tk)) {
				t.Errorf("%s: task %d replayed as p%d [%v, %v], want p%d [%v, %v]", s.Algorithm, tk,
					got.Proc(tk), got.Start(tk), got.Finish(tk), s.Proc(tk), s.Start(tk), s.Finish(tk))
			}
		}
		for p := 0; p < s.NumProcs(); p++ {
			if !slices.Equal(got.TasksOn(p), s.TasksOn(p)) || !sameBits(got.PRT(p), s.PRT(p)) {
				t.Errorf("%s: processor %d replayed as %v ready %v, want %v ready %v", s.Algorithm, p, got.TasksOn(p), got.PRT(p), s.TasksOn(p), s.PRT(p))
			}
		}
		if !slices.Equal(got.PlacementOrder(), s.PlacementOrder()) {
			t.Errorf("%s: placement order %v, want %v", s.Algorithm, got.PlacementOrder(), s.PlacementOrder())
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: replay does not validate: %v", s.Algorithm, err)
		}
	}
}

// TestRecordFillStorage: Fill reuses a record's storage when it fits and
// drops storage more than twice the answer.
func TestRecordFillStorage(t *testing.T) {
	small := paperSchedule(fig1())
	var r Record
	r.Fill(small)
	if avg := testing.AllocsPerRun(10, func() { r.Fill(small) }); avg != 0 {
		t.Errorf("refilling a record allocates %.1f/run, want 0", avg)
	}
	big := chain(20)
	r.Fill(listSchedule(big, machine.NewSystem(2)))
	if r.Bytes() != 20*StepBytes {
		t.Fatalf("20-task record holds %d B, want %d", r.Bytes(), 20*StepBytes)
	}
	r.Fill(small)
	if r.Bytes() != 8*StepBytes {
		t.Errorf("8-task record in a 20-step arena holds %d B, want %d", r.Bytes(), 8*StepBytes)
	}
}

// TestRecordRejects: incomplete and duplicating schedules are not
// recordable, and a record replays only on a problem it fits.
func TestRecordRejects(t *testing.T) {
	g := fig1()
	partial := New(g, machine.NewSystem(2))
	partial.Place(0, 0, 0)
	dup := paperSchedule(g)
	dup.PlaceCopy(0, 1, 0)
	for name, s := range map[string]*Schedule{"incomplete": partial, "duplicating": dup} {
		if Recordable(s) {
			t.Errorf("%s schedule is recordable", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fill accepted an %s schedule", name)
				}
			}()
			var r Record
			r.Fill(s)
		}()
	}
	var r Record
	r.Fill(paperSchedule(g))
	if r.Fits(chain(8), machine.NewSystem(3)) || r.Fits(chain(9), machine.NewSystem(2)) || !r.Fits(chain(8), machine.NewSystem(2)) {
		t.Errorf("Fits does not compare task count and P")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Replay accepted a problem of another size")
		}
	}()
	r.Replay(chain(9), machine.NewSystem(2))
}
