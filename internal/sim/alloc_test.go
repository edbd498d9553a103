package sim

import (
	"testing"

	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/workload"
)

// The simulators are instrumented with guarded obs emissions; these tests
// pin the overhead discipline (obs package comment): an arena sink reaches
// zero steady-state allocations once warm, so observing a run costs no
// more allocations than the nil-sink run.

func TestRunNilObserverAddsNoAllocs(t *testing.T) {
	g, err := workload.Instance("lu", 300, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	s, err := core.FLB{}.Schedule(g, machine.NewSystem(8))
	if err != nil {
		t.Fatal(err)
	}
	run := func(sink obs.Sink) {
		if _, err := Run(s, fault.Plan{}, nil, nil, 0, nil, sink); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		run(nil)
	}
	base := testing.AllocsPerRun(20, func() { run(nil) })

	// A warm arena-backed Recorder adds nothing: the event arenas are
	// grown once and reused across Reset.
	rec := obs.NewRecorder()
	for i := 0; i < 2; i++ {
		rec.Reset()
		run(rec)
	}
	recorded := testing.AllocsPerRun(20, func() {
		rec.Reset()
		run(rec)
	})
	if recorded > base {
		t.Errorf("warm Recorder adds allocations: %.1f/run recorded vs %.1f/run nil sink", recorded, base)
	}
}
