package par

import (
	"errors"
	"sync/atomic"
	"testing"

	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/workload"
)

// fixture returns a frozen paper-style workload for the engine tests.
func fixture(t testing.TB, v int) *graph.Graph {
	t.Helper()
	g, err := workload.Instance("lu", v, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g
}

func TestNewClampsWorkers(t *testing.T) {
	if got := New(4).Workers(); got != 4 {
		t.Errorf("Workers = %d, want 4", got)
	}
	if got := New(0).Workers(); got < 1 {
		t.Errorf("New(0).Workers() = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := New(-3).Workers(); got < 1 {
		t.Errorf("New(-3).Workers() = %d, want >= 1", got)
	}
}

// TestEachCoversEverySlotOnce: every index is executed exactly once, for
// inline and pooled execution alike.
func TestEachCoversEverySlotOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		counts := make([]int32, 100)
		err := New(w).Each(len(counts), func(_ *Worker, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", w, i, c)
			}
		}
	}
}

// TestEachDeterministicResults: scheduling the same frozen instances
// through pools of different sizes yields bit-identical slot contents.
func TestEachDeterministicResults(t *testing.T) {
	g := fixture(t, 120)
	sys := machine.NewSystem(4)
	run := func(workers, n int) []float64 {
		out := make([]float64, n)
		err := New(workers).Each(n, func(w *Worker, i int) error {
			s, err := w.Scheduler().Schedule(g, sys)
			if err != nil {
				return err
			}
			out[i] = s.Makespan()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1, 40)
	for _, w := range []int{2, 8} {
		got := run(w, 40)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %v, want %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestEachLowestIndexErrorWins: the batch error is the serial loop's —
// the lowest failing index — no matter which worker hit it first.
func TestEachLowestIndexErrorWins(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, w := range []int{1, 4} {
		var ran atomic.Int32
		err := New(w).Each(50, func(_ *Worker, i int) error {
			ran.Add(1)
			switch i {
			case 7:
				return errA
			case 30:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: err = %v, want %v", w, err, errA)
		}
		// The pooled path completes the batch; the inline path stops at
		// the first error like a serial loop.
		if w == 1 {
			if got := ran.Load(); got != 8 {
				t.Errorf("inline path ran %d jobs, want 8", got)
			}
		} else if got := ran.Load(); got != 50 {
			t.Errorf("pooled path ran %d jobs, want 50", got)
		}
	}
}

func TestEachEmptyBatch(t *testing.T) {
	if err := New(4).Each(0, func(*Worker, int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerSteadyStateZeroAllocs pins the per-worker hot path: a warm
// worker scheduling frozen instances into preallocated slots allocates
// nothing. The inline path is measured (AllocsPerRun cannot see across
// goroutines), and the pooled path runs the same worker loop.
func TestWorkerSteadyStateZeroAllocs(t *testing.T) {
	g := fixture(t, 200)
	sys := machine.NewSystem(8)
	e := New(1)
	out := make([]float64, 16)
	fn := func(w *Worker, i int) error {
		s, err := w.Scheduler().Schedule(g, sys)
		if err != nil {
			return err
		}
		out[i] = s.Makespan()
		return nil
	}
	run := func() {
		if err := e.Each(len(out), fn); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("warm 16-job batch allocates %.1f, want 0", avg)
	}
}

// TestPooledBatchOverheadBounded: the pooled path's allocations are
// per-batch (goroutines + queue), not per-job — a 256-job batch stays
// within a small constant.
func TestPooledBatchOverheadBounded(t *testing.T) {
	g := fixture(t, 60)
	sys := machine.NewSystem(4)
	e := New(4)
	out := make([]float64, 256)
	fn := func(w *Worker, i int) error {
		s, err := w.Scheduler().Schedule(g, sys)
		if err != nil {
			return err
		}
		out[i] = s.Makespan()
		return nil
	}
	run := func() {
		if err := e.Each(len(out), fn); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	if avg := testing.AllocsPerRun(5, run); avg > 64 {
		t.Errorf("warm 256-job pooled batch allocates %.1f, want <= 64 (per-batch setup only)", avg)
	}
}
