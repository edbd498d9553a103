//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/workload"
)

// scheduleDropped schedules a fresh graph with run and returns a weak
// pointer to it; the caller holds neither the graph nor the schedule.
func scheduleDropped(t *testing.T, run func(*graph.Graph, machine.System) error) weak.Pointer[graph.Graph] {
	g, err := workload.Instance("stencil", 300, 1, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	if err := run(g, machine.NewSystem(4)); err != nil {
		t.Fatal(err)
	}
	return weak.Make(g)
}

// TestReleaseDropsGraph: neither a released Scheduler arena nor the
// pooled arena behind FLB.Schedule keeps the last run's graph alive. One
// collection must free it: the pool keeps its arenas through the first.
func TestReleaseDropsGraph(t *testing.T) {
	sc := NewScheduler(FLB{})
	wp := scheduleDropped(t, func(g *graph.Graph, sys machine.System) error {
		_, err := sc.Schedule(g, sys)
		return err
	})
	sc.Release()
	runtime.GC()
	if wp.Value() != nil {
		t.Errorf("a released Scheduler keeps its last graph alive")
	}
	wp = scheduleDropped(t, func(g *graph.Graph, sys machine.System) error {
		_, err := FLB{}.Schedule(g, sys)
		return err
	})
	runtime.GC()
	if wp.Value() != nil {
		t.Errorf("the pooled FLB arena keeps its last graph alive")
	}
	runtime.KeepAlive(sc)
}
