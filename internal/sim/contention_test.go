package sim

import (
	"math/rand"
	"strings"
	"testing"

	"flb/internal/algo/registry"
	"flb/internal/core"
	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/schedule"
	"flb/internal/workload"
)

func TestContendedNeverFasterThanContentionFree(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		g := workload.GNPDag(rng, 15+rng.Intn(20), 0.1+0.3*rng.Float64())
		workload.RandomizeWeights(g, rng, nil, []float64{0.2, 5}[rng.Intn(2)])
		s, err := core.FLB{}.Schedule(g, machine.NewSystem(1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		free, err := runFree(s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range []Network{SharedBus, PerLink, PerPort} {
			res, err := RunContended(s, net, nil)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, net, err)
			}
			if res.Makespan < free.Makespan-1e-9 {
				t.Fatalf("trial %d: %s makespan %v below contention-free %v",
					trial, net, res.Makespan, free.Makespan)
			}
			// Per-task starts are also monotone vs the free execution.
			for id := range res.Start {
				if res.Start[id] < free.Start[id]-1e-9 {
					t.Fatalf("trial %d %s: task %d starts earlier under contention", trial, net, id)
				}
			}
		}
	}
}

func TestContendedSingleProcessorUnaffected(t *testing.T) {
	g := workload.LU(8)
	s, err := core.FLB{}.Schedule(g, machine.NewSystem(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContended(s, SharedBus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != s.Makespan() {
		t.Errorf("P=1 contended makespan %v != planned %v", res.Makespan, s.Makespan())
	}
}

func TestSharedBusSerializesFanout(t *testing.T) {
	// A producer shipping to 3 remote consumers (hand-placed: FLB itself
	// would keep this fan-out local). Contention-free, every message
	// arrives at 1 + 4 = 5; on a shared bus they serialize (deliveries at
	// 5, 9, 13), on a per-link crossbar they do not.
	g := workload.OutTree(2, 3) // root + 3 leaves
	for i := 0; i < g.NumEdges(); i++ {
		g.SetComm(i, 4)
	}
	s := schedule.New(g, machine.NewSystem(4))
	s.Algorithm = "hand"
	s.Place(0, 0, 0) // root
	for i, ei := range g.SuccEdges(0) {
		s.Place(g.Edge(int(ei)).To, i+1, 5)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	free, err := runFree(s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if free.Makespan != 6 {
		t.Fatalf("contention-free makespan = %v, want 6", free.Makespan)
	}
	bus, err := RunContended(s, SharedBus, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Last delivery at 13, leaf finishes at 14.
	if bus.Makespan != 14 {
		t.Errorf("shared bus makespan = %v, want 14", bus.Makespan)
	}
	// All three messages leave p0, so the sender-port model serializes
	// exactly like the bus here.
	port, err := RunContended(s, PerPort, nil)
	if err != nil {
		t.Fatal(err)
	}
	if port.Makespan != 14 {
		t.Errorf("per-port makespan = %v, want 14", port.Makespan)
	}
	// A full crossbar restores the contention-free behaviour: each
	// consumer has its own link.
	link, err := RunContended(s, PerLink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if link.Makespan != free.Makespan {
		t.Errorf("per-link (%v) differs from contention-free (%v) on disjoint links",
			link.Makespan, free.Makespan)
	}
}

func TestNetworkString(t *testing.T) {
	cases := map[Network]string{SharedBus: "shared-bus", PerLink: "per-link", PerPort: "per-port", Network(9): "Network(9)"}
	for n, want := range cases {
		if n.String() != want {
			t.Errorf("String(%d) = %q", int(n), n.String())
		}
	}
}

func TestRunContendedErrors(t *testing.T) {
	g := workload.Chain(3)
	s := schedule.New(g, machine.NewSystem(1))
	if _, err := RunContended(s, SharedBus, nil); err == nil {
		t.Error("incomplete schedule accepted")
	}
	// An unknown network model is an error that names the value, raised
	// before any event: it must not run as some other model.
	full, err := core.FLB{}.Schedule(g, machine.NewSystem(2))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := RunContended(full, Network(7), rec); err == nil || !strings.Contains(err.Error(), "Network(7)") {
		t.Errorf("unknown network: err = %v, want an error naming Network(7)", err)
	}
	if rec.Len() != 0 {
		t.Errorf("unknown network emitted %d events, want 0", rec.Len())
	}
}

// TestExactSimulationAllAlgorithms: the exact self-timed execution must
// reproduce the planned makespan for every non-duplicating algorithm in
// the registry — an end-to-end consistency check between each scheduler's
// EST arithmetic and the execution semantics.
func TestExactSimulationAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	g := workload.GNPDag(rng, 40, 0.15)
	workload.RandomizeWeights(g, rng, nil, 1.0)
	g.Freeze()
	for _, name := range registry.Names() {
		a := registry.MustNew(name, 1)
		s, err := a.Schedule(g, machine.NewSystem(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.HasDuplicates() {
			continue // self-timed semantics undefined for copies
		}
		res, err := runFree(s, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The simulated makespan never exceeds the planned one (left
		// shifts only) and matches exactly for the append-at-EST
		// schedulers.
		if res.Makespan > s.Makespan()+1e-9 {
			t.Errorf("%s: simulated %v exceeds planned %v", name, res.Makespan, s.Makespan())
		}
		// Contended execution is never faster than the free one.
		cont, err := RunContended(s, PerLink, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cont.Makespan < res.Makespan-1e-9 {
			t.Errorf("%s: contended %v beats free %v", name, cont.Makespan, res.Makespan)
		}
	}
}
