package flb_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"flb"
)

// sameSchedule compares two schedules placement by placement.
func sameSchedule(t *testing.T, a, b *flb.Schedule) {
	t.Helper()
	if a.Makespan() != b.Makespan() {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan(), b.Makespan())
	}
	for tk := 0; tk < a.Graph().NumTasks(); tk++ {
		if a.Proc(tk) != b.Proc(tk) || a.Start(tk) != b.Start(tk) || a.Finish(tk) != b.Finish(tk) {
			t.Fatalf("task %d: (%d,%g,%g) vs (%d,%g,%g)", tk,
				a.Proc(tk), a.Start(tk), a.Finish(tk), b.Proc(tk), b.Start(tk), b.Finish(tk))
		}
	}
}

// TestExecuteFaultFreeMatchesFaulty: Execute without WithFaults and with
// WithFaults(zero plan) are bit-identical, so WithFaults(zero) is safe to
// compose unconditionally.
func TestExecuteFaultFreeMatchesFaulty(t *testing.T) {
	s, err := flb.Run(flb.PaperExample(), flb.WithSystem(flb.NewSystem(2)))
	if err != nil {
		t.Fatal(err)
	}
	free, err := flb.Execute(s, flb.WithJitter(0.3, 0.3), flb.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := flb.Execute(s, flb.WithFaults(flb.FaultPlan{}), flb.WithJitter(0.3, 0.3), flb.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(free.Result, faulty.Result) {
		t.Errorf("engines diverge:\n%+v\n%+v", free.Result, faulty.Result)
	}
	if !reflect.DeepEqual(free.Proc, faulty.Proc) {
		t.Errorf("placements diverge: %v vs %v", free.Proc, faulty.Proc)
	}
}

// TestWithObserverEndToEnd drives a recorder and telemetry through the
// public API: schedule events from Run, execution and fault events from
// Execute.
func TestWithObserverEndToEnd(t *testing.T) {
	g := flb.PaperExample()
	rec := flb.NewRecorder()
	tel := flb.NewTelemetry()
	s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(2)), flb.WithObserver(flb.TeeObservers(rec, tel)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Steps()); got != g.NumTasks() {
		t.Errorf("recorded %d decisions, want %d", got, g.NumTasks())
	}
	if tel.Steps != g.NumTasks() {
		t.Errorf("telemetry saw %d decisions, want %d", tel.Steps, g.NumTasks())
	}

	plan := flb.FaultPlan{Crashes: []flb.Crash{{Proc: 1, Time: 5}}, Repair: flb.RepairReschedule}
	if _, err := flb.Execute(s, flb.WithFaults(plan), flb.WithObserver(flb.TeeObservers(rec, tel))); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Crashes()); got != 1 {
		t.Errorf("recorded %d crashes, want 1", got)
	}
	if tel.Crashes != 1 || tel.Repairs != 1 {
		t.Errorf("telemetry crashes=%d repairs=%d, want 1/1", tel.Crashes, tel.Repairs)
	}
	if tel.TasksRun != g.NumTasks() {
		t.Errorf("telemetry executed %d tasks, want %d", tel.TasksRun, g.NumTasks())
	}
	if tel.Utilization() <= 0 || tel.Utilization() > 1 {
		t.Errorf("utilization = %g", tel.Utilization())
	}

	// WithObserver(nil) and no observer are both the zero-overhead path.
	if _, err := flb.Run(g, flb.WithSystem(flb.NewSystem(2)), flb.WithObserver(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestChromeTraceThroughAPI checks the public wiring: schedule + execute
// into one ChromeTrace yields a valid, non-trivial JSON document.
func TestChromeTraceThroughAPI(t *testing.T) {
	g := flb.PaperExample()
	var buf bytes.Buffer
	ct := flb.NewChromeTrace(&buf)
	ct.TaskNames = func(id int) string { return g.Task(id).Name }
	s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(2)), flb.WithObserver(ct))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flb.Execute(s, flb.WithObserver(ct)); err != nil {
		t.Fatal(err)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			slices++
		}
	}
	if slices != g.NumTasks() {
		t.Errorf("%d task slices, want %d", slices, g.NumTasks())
	}
}

// TestWithSeedDefault: omitting WithSeed must match WithSeed(DefaultSeed).
func TestWithSeedDefault(t *testing.T) {
	s, err := flb.Run(flb.PaperExample(), flb.WithSystem(flb.NewSystem(2)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := flb.Execute(s, flb.WithJitter(0.3, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := flb.Execute(s, flb.WithJitter(0.3, 0.3), flb.WithSeed(flb.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("default seed diverges from WithSeed(DefaultSeed)")
	}
}

// TestRunOnWithObserver: Run on an explicit system honors the observer
// with the FLB name spelled in a different casing, and rejects an unknown
// algorithm.
func TestRunOnWithObserver(t *testing.T) {
	g := flb.PaperExample()
	sys := flb.NewSystem(2)
	var steps []flb.Step
	s, err := flb.Run(g, flb.WithSystem(sys), flb.WithAlgorithm("FLB"), flb.WithObserver(flb.NewStepRecorder(&steps)))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != g.NumTasks() {
		t.Errorf("recorded %d steps, want %d", len(steps), g.NumTasks())
	}
	if s.Makespan() != 14 {
		t.Errorf("makespan = %g", s.Makespan())
	}
	if _, err := flb.Run(g, flb.WithSystem(sys), flb.WithAlgorithm("bogus")); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestWithSystemSemantics pins the option-resolution rules of Run: the
// default machine is one processor, and the last WithSystem wins.
func TestWithSystemSemantics(t *testing.T) {
	g := flb.PaperExample()

	// Default machine: one processor — a topological serialization.
	s, err := flb.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.TotalComp(); s.Makespan() != want {
		t.Errorf("default-system makespan = %g, want serialized %g", s.Makespan(), want)
	}

	// Last WithSystem wins, like every other repeated option.
	two, err := flb.Run(g, flb.WithSystem(flb.NewSystem(4)), flb.WithSystem(flb.NewSystem(2)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := flb.Run(g, flb.WithSystem(flb.NewSystem(2)))
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, want, two)
}

// TestNewSystemOptions covers the system construction options: WithComm
// swaps the communication model and WithSpeeds builds a (canonicalized)
// uniformly related machine.
func TestNewSystemOptions(t *testing.T) {
	sys := flb.NewSystem(3,
		flb.WithComm(flb.LatencyBandwidth{Latency: 1, Bandwidth: 2}),
		flb.WithSpeeds([]float64{2, 1, 1}))
	if sys.P != 3 {
		t.Errorf("P = %d", sys.P)
	}
	if got := sys.CommCost(4, 0, 1); got != 3 {
		t.Errorf("comm cost = %g, want latency+w/bw = 3", got)
	}
	if got := sys.Speed(0); got != 2 {
		t.Errorf("speed[0] = %g", got)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}

	// All-1.0 speeds canonicalize to the homogeneous machine.
	if unit := flb.NewSystem(2, flb.WithSpeeds([]float64{1, 1})); unit.Speeds != nil {
		t.Errorf("all-1.0 speeds survived canonicalization: %v", unit.Speeds)
	}

	// The caller's slice is copied, never aliased.
	mine := []float64{2, 1}
	sys2 := flb.NewSystem(2, flb.WithSpeeds(mine))
	mine[0] = 99
	if sys2.Speed(0) != 2 {
		t.Errorf("WithSpeeds aliased the caller's slice: speed[0] = %g", sys2.Speed(0))
	}
}

// TestRunWithContextCanceled pins WithContext on the scheduling path: a
// done context aborts Run's FLB dispatch — cached or not — with an error
// wrapping ctx.Err(), while a live context changes nothing.
func TestRunWithContextCanceled(t *testing.T) {
	g := flb.LU(30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if s, err := flb.Run(g, flb.WithContext(ctx)); s != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(canceled ctx) = (%v, %v), want (nil, context.Canceled)", s, err)
	}
	cache := flb.NewScheduleCache(4)
	if s, err := flb.Run(g, flb.WithContext(ctx), flb.WithCache(cache)); s != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cached Run(canceled ctx) = (%v, %v), want (nil, context.Canceled)", s, err)
	}

	plain, err := flb.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	live, err := flb.Run(g, flb.WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, plain, live)
}
