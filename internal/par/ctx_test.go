package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachCtxPrecancelled pins the upfront check: a context that is done
// before EachCtx starts dispatches nothing and returns its error.
func TestEachCtxPrecancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := New(4).EachCtx(ctx, 100, func(w *Worker, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d jobs ran on a precancelled context, want 0", n)
	}
}

// TestEachCtxCancelWhileQueued cancels while the workers are blocked
// inside their first jobs and the rest of the batch is either in the
// queue buffer or still waiting for dispatch: exactly the blocked jobs
// complete, and every job not yet started fails with the context error,
// whether it was queued before the cancel or not. started holds every
// job, so a job that starts after the cancel fails the count instead of
// blocking.
func TestEachCtxCancelWhileQueued(t *testing.T) {
	const workers, n = 2, 100
	e := New(workers)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan int, n)
	release := make(chan struct{})
	var ran atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- e.EachCtx(ctx, n, func(w *Worker, i int) error {
			started <- i
			<-release
			ran.Add(1)
			return nil
		})
	}()
	<-started
	<-started
	cancel()
	close(release)
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != workers {
		t.Fatalf("%d jobs ran, want exactly the %d started before the cancel", got, workers)
	}
}

// TestEachCtxLowestIndexWins pins error determinism under cancellation:
// a job failure at a low index beats the context error recorded at the
// undispatched indexes, exactly as in the serial loop.
func TestEachCtxLowestIndexWins(t *testing.T) {
	errBoom := errors.New("boom")
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failed := make(chan struct{})
	release := make(chan struct{})
	err := func() error {
		errc := make(chan error, 1)
		go func() {
			errc <- e.EachCtx(ctx, 100, func(w *Worker, i int) error {
				if i == 0 {
					close(failed)
					return errBoom
				}
				<-release
				return nil
			})
		}()
		<-failed
		cancel()
		close(release)
		return <-errc
	}()
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the index-0 job error to win over cancellation", err)
	}
}

// TestEachCtxCancelWhileRunning lets every job get dispatched before the
// cancel lands: running jobs are never interrupted, so the whole batch
// completes and EachCtx reports no error at all.
func TestEachCtxCancelWhileRunning(t *testing.T) {
	e := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 4 // one job per worker: all dispatch immediately
	gate := make(chan struct{})
	var ran atomic.Int64
	errc := make(chan error, 1)
	dispatched := make(chan struct{}, n)
	go func() {
		errc <- e.EachCtx(ctx, n, func(w *Worker, i int) error {
			dispatched <- struct{}{}
			<-gate
			ran.Add(1)
			return nil
		})
	}()
	for i := 0; i < n; i++ {
		<-dispatched
	}
	cancel()
	close(gate)
	if err := <-errc; err != nil {
		t.Fatalf("err = %v; dispatched jobs must finish and report success", err)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("%d jobs ran, want %d", got, n)
	}
}

// TestEachCtxNoGoroutineLeak runs canceled batches repeatedly and checks
// the goroutine count settles back to the baseline: cancellation must
// still close the queue and join every worker.
func TestEachCtxNoGoroutineLeak(t *testing.T) {
	e := New(8)
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, 1)
		var once atomic.Bool
		_ = e.EachCtx(ctx, 200, func(w *Worker, i int) error {
			if once.CompareAndSwap(false, true) {
				started <- struct{}{}
			}
			return nil
		})
		select {
		case <-started:
		default:
		}
		cancel()
	}
	// Also one canceled-mid-flight round with blocking jobs.
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
		close(release)
	}()
	_ = e.EachCtx(ctx, 500, func(w *Worker, i int) error {
		if i < 8 {
			<-release
		}
		return nil
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
