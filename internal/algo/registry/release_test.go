//go:build go1.24

package registry

import (
	"runtime"
	"testing"
	"weak"

	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/workload"
)

// TestScheduleDropsGraph: no algorithm's pooled scratch keeps the last
// graph it scheduled alive. Once the caller drops the graph and the
// schedule, one collection must free the graph: a sync.Pool keeps its
// states through the first, so a state that still referred to the graph
// would keep it.
func TestScheduleDropsGraph(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		wp := func() weak.Pointer[graph.Graph] {
			g, err := workload.Instance("stencil", 300, 1, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			g.Freeze()
			if _, err := a.Schedule(g, machine.NewSystem(4)); err != nil {
				t.Fatal(err)
			}
			return weak.Make(g)
		}()
		runtime.GC()
		if wp.Value() != nil {
			t.Errorf("%s keeps its last graph alive", name)
		}
	}
}
