package flb_test

import (
	"bytes"
	"reflect"
	"testing"

	"flb"
)

// batchGraphs builds a small mixed workload matrix: several families and
// seeds, frozen so batch workers may share them read-only.
func batchGraphs(t testing.TB) []*flb.Graph {
	t.Helper()
	var gs []*flb.Graph
	for _, fam := range []string{"lu", "laplace", "stencil"} {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := flb.WorkloadInstance(fam, 80, 1.0, nil, seed)
			if err != nil {
				t.Fatal(err)
			}
			g.Freeze()
			gs = append(gs, g)
		}
	}
	return gs
}

func scheduleBytes(t testing.TB, s *flb.Schedule) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

var batchWorkerCounts = []int{1, 2, 8}

// TestRunBatchMatchesSerial: for FLB and a registry algorithm, RunBatch
// with 1, 2 and 8 workers is byte-identical (serialized JSON) to the
// serial Run loop.
func TestRunBatchMatchesSerial(t *testing.T) {
	gs := batchGraphs(t)
	for _, alg := range []string{"flb", "mcp"} {
		opts := []flb.Option{flb.WithSystem(flb.NewSystem(8)), flb.WithAlgorithm(alg), flb.WithSeed(7)}
		want := make([]string, len(gs))
		for i, g := range gs {
			s, err := flb.Run(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = scheduleBytes(t, s)
		}
		for _, w := range batchWorkerCounts {
			got, err := flb.RunBatch(gs, append(opts[:len(opts):len(opts)], flb.WithWorkers(w))...)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(gs) {
				t.Fatalf("%s workers=%d: %d results, want %d", alg, w, len(got), len(gs))
			}
			for i := range got {
				if scheduleBytes(t, got[i]) != want[i] {
					t.Errorf("%s workers=%d: schedule %d differs from serial", alg, w, i)
				}
			}
		}
	}
}

// executeOptionCases are the Execute configurations the batch engine must
// reproduce: fault-free, jittered, faulty with both repair strategies,
// and lossy messages.
func executeOptionCases() []struct {
	name string
	opts []flb.Option
} {
	crash := []flb.Crash{{Proc: 2, Time: 5}}
	return []struct {
		name string
		opts []flb.Option
	}{
		{"fault-free", []flb.Option{flb.WithSeed(3)}},
		{"jittered", []flb.Option{flb.WithJitter(0.2, 0.2), flb.WithSeed(3)}},
		{"crash-reschedule", []flb.Option{
			flb.WithFaults(flb.FaultPlan{Crashes: crash, Repair: flb.RepairReschedule}),
			flb.WithJitter(0.1, 0), flb.WithSeed(3),
		}},
		{"crash-migrate", []flb.Option{
			flb.WithFaults(flb.FaultPlan{Crashes: crash, Repair: flb.RepairMigrate}),
			flb.WithSeed(3),
		}},
		{"lossy", []flb.Option{
			flb.WithFaults(flb.FaultPlan{
				MsgLoss: 0.2,
				Retry:   flb.RetryPolicy{Timeout: 1, MaxRetries: 3, Backoff: 2},
			}),
			flb.WithSeed(3),
		}},
	}
}

// TestExecuteBatchMatchesSerial: fault-free, jittered, faulty and lossy
// executions through the batch engine reproduce the serial Execute loop
// exactly for every worker count. Every ExecResult field is
// deterministic, so DeepEqual is byte-level equivalence.
func TestExecuteBatchMatchesSerial(t *testing.T) {
	gs := batchGraphs(t)
	scheds, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range executeOptionCases() {
		want := make([]*flb.ExecResult, len(scheds))
		for i, s := range scheds {
			if want[i], err = flb.Execute(s, tc.opts...); err != nil {
				t.Fatalf("%s: serial Execute: %v", tc.name, err)
			}
		}
		for _, w := range batchWorkerCounts {
			got, err := flb.ExecuteBatch(scheds, append(tc.opts[:len(tc.opts):len(tc.opts)], flb.WithWorkers(w))...)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s workers=%d: result %d differs from serial", tc.name, w, i)
				}
			}
		}
	}
}

// TestBatchObserverStream: the observer attached to a batch receives, for
// every worker count, exactly the serial loop's event stream — all jobs in
// job-index order, byte-identical through the deterministic ChromeTrace
// exporter.
func TestBatchObserverStream(t *testing.T) {
	gs := batchGraphs(t)
	trace := func(run func(obs flb.Observer) error) string {
		var buf bytes.Buffer
		ct := flb.NewChromeTrace(&buf)
		if err := run(ct); err != nil {
			t.Fatal(err)
		}
		if err := ct.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := trace(func(o flb.Observer) error {
		for _, g := range gs {
			s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithObserver(o))
			if err != nil {
				return err
			}
			if _, err := flb.Execute(s, flb.WithObserver(o)); err != nil {
				return err
			}
		}
		return nil
	})
	for _, w := range batchWorkerCounts {
		got := trace(func(o flb.Observer) error {
			scheds, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithObserver(o), flb.WithWorkers(w))
			if err != nil {
				return err
			}
			_, err = flb.ExecuteBatch(scheds, flb.WithObserver(o), flb.WithWorkers(w))
			return err
		})
		if got != want {
			t.Errorf("workers=%d: observer stream differs from serial loop", w)
		}
	}
}

// TestBatchErrorIsSerial: a failing job surfaces the same error the
// serial loop would return (lowest index), and the observer stays silent.
func TestBatchErrorIsSerial(t *testing.T) {
	gs := batchGraphs(t)
	rec := flb.NewRecorder()
	_, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)),
		flb.WithAlgorithm("no-such-algorithm"), flb.WithWorkers(4), flb.WithObserver(rec))
	if err == nil {
		t.Fatal("RunBatch accepted an unknown algorithm")
	}
	var wantErr error
	if _, wantErr = flb.Run(gs[0], flb.WithSystem(flb.NewSystem(8)), flb.WithAlgorithm("no-such-algorithm")); wantErr == nil {
		t.Fatal("Run accepted an unknown algorithm")
	}
	if err.Error() != wantErr.Error() {
		t.Errorf("batch error %q, serial error %q", err, wantErr)
	}
	if rec.Len() != 0 {
		t.Errorf("failed batch emitted %d events, want 0", rec.Len())
	}
}

// TestRunBatchValidationHoisted: batch-wide knobs (algorithm name, system)
// are rejected before the pool spins up, with exactly the serial loop's
// error and precedence — the algorithm resolves before the system
// validates, matching Run.
func TestRunBatchValidationHoisted(t *testing.T) {
	gs := batchGraphs(t)
	bad := flb.System{P: 0}
	_, batchErr := flb.RunBatch(gs, flb.WithSystem(bad))
	if batchErr == nil {
		t.Fatal("RunBatch accepted P=0")
	}
	_, serialErr := flb.Run(gs[0], flb.WithSystem(bad))
	if serialErr == nil {
		t.Fatal("Run accepted P=0")
	}
	if batchErr.Error() != serialErr.Error() {
		t.Errorf("batch error %q, serial error %q", batchErr, serialErr)
	}
	// Precedence: with both knobs broken, the algorithm error wins.
	_, bothErr := flb.RunBatch(gs, flb.WithSystem(bad), flb.WithAlgorithm("no-such-algorithm"))
	if bothErr == nil {
		t.Fatal("RunBatch accepted an unknown algorithm on an invalid system")
	}
	_, wantErr := flb.Run(gs[0], flb.WithSystem(bad), flb.WithAlgorithm("no-such-algorithm"))
	if wantErr == nil {
		t.Fatal("Run accepted an unknown algorithm")
	}
	if bothErr.Error() != wantErr.Error() {
		t.Errorf("batch precedence error %q, serial %q", bothErr, wantErr)
	}
}

// TestRunBatchPerJobAllocBudget pins the hoist regression: per-job
// overhead on the FLB path is the result clone plus slot bookkeeping, not
// re-validation or algorithm re-resolution. Measured as the marginal
// allocations between a small and a large batch of the same frozen
// problem on one worker (the arena path).
func TestRunBatchPerJobAllocBudget(t *testing.T) {
	g, err := flb.WorkloadInstance("lu", 120, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	batch := func(n int) []*flb.Graph {
		gs := make([]*flb.Graph, n)
		for i := range gs {
			gs[i] = g
		}
		return gs
	}
	measure := func(gs []*flb.Graph) float64 {
		for i := 0; i < 2; i++ { // warm the engine and arenas
			if _, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(batch(4)), measure(batch(12))
	perJob := (large - small) / 8
	// A schedule clone is a handful of consolidated allocations; budget
	// generously to catch only a return to per-job validation/resolution
	// (each NewAlgorithm probe alone is several allocations plus registry
	// work).
	if perJob > 20 {
		t.Errorf("marginal batch job allocates %.1f, want <= 20", perJob)
	}
}
