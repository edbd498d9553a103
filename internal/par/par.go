// Package par is the sharded batch-scheduling engine: a fixed pool of
// workers, each owning the reusable scheduling arenas of internal/core (a
// Scheduler and a Rescheduler, plus a cache of registry-built algorithm
// instances), pulling job indexes from one bounded queue and writing
// results into caller-indexed slots.
//
// # Determinism
//
// The engine guarantees that a batch's results are byte-identical to the
// serial loop over the same jobs, regardless of the worker count and of
// how the queue interleaves jobs over workers. The argument has three
// legs:
//
//   - results are slot-indexed: job i writes only into the caller's slot
//     i, so output order never depends on completion order;
//   - arenas are history-independent: a reused core.Scheduler,
//     core.Rescheduler or registry algorithm produces bit-identical output
//     for the same input no matter what it scheduled before (pinned by
//     the determinism suites in internal/core and internal/algo/registry),
//     so it does not matter which worker — with which arena history — a
//     job lands on;
//   - jobs share no mutable state: each worker's arenas are confined to
//     its goroutine, and cross-job inputs (frozen graphs) are read-only.
//
// Errors are deterministic too: when several jobs fail, Each returns the
// error of the lowest job index — the same error the serial loop would
// have stopped at.
//
// # Overhead discipline
//
// The per-job path allocates nothing of its own: the worker loop
// (Engine.work, a //flb:hotpath enforced by flblint) only pulls an index
// and calls the job function, and the arenas reach zero steady-state
// allocations exactly as in serial use. Per-batch setup (goroutines, the
// bounded queue) allocates O(workers) once and amortizes over the batch.
package par

import (
	"context"
	"runtime"
	"sync"

	"flb/internal/algo"
	"flb/internal/algo/registry"
	"flb/internal/core"
)

// Worker owns the per-goroutine scheduling arenas of one engine shard.
// During Each, exactly one goroutine uses a given Worker, so the arenas
// never need locks; between batches the same arenas are reused, which is
// where the zero-allocation steady state comes from.
type Worker struct {
	id      int
	sched   *core.Scheduler
	resched *core.Rescheduler

	// algs caches registry-built algorithm instances per name so a worker
	// never shares an instance (or any seeded state inside one) with
	// another goroutine. The cache is invalidated when the seed changes.
	algs    map[string]algo.Algorithm
	algSeed int64
}

// ID returns the worker's index in [0, Workers()).
func (w *Worker) ID() int { return w.id }

// Scheduler returns the worker's reusable FLB arena. The schedule it
// returns is valid only until the worker's next Schedule call; jobs that
// keep it must Clone it into their slot.
func (w *Worker) Scheduler() *core.Scheduler { return w.sched }

// Rescheduler returns the worker's reusable online-repair arena.
func (w *Worker) Rescheduler() *core.Rescheduler { return w.resched }

// Algorithm returns the worker's private instance of the named registry
// algorithm, building and caching it on first use. Each worker holds its
// own instance so algorithms carrying seeded or pooled state are never
// shared across goroutines; determinism across reuse is pinned by the
// registry determinism suite.
func (w *Worker) Algorithm(name string, seed int64) (algo.Algorithm, error) {
	if w.algs == nil || w.algSeed != seed {
		w.algs = map[string]algo.Algorithm{}
		w.algSeed = seed
	}
	if a, ok := w.algs[name]; ok {
		return a, nil
	}
	a, err := registry.New(name, seed)
	if err != nil {
		return nil, err
	}
	w.algs[name] = a
	return a, nil
}

// Engine is a fixed worker pool for batch scheduling. Create one with New,
// reuse it across batches (the arenas grow to the largest job seen and are
// then allocation-free), and fan a batch out with Each. An Engine may be
// used by one batch at a time; concurrent Each calls on the same Engine
// are not allowed.
type Engine struct {
	workers []Worker
}

// New returns an engine with n workers; n <= 0 selects GOMAXPROCS.
func New(n int) *Engine {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	e := &Engine{workers: make([]Worker, n)}
	for i := range e.workers {
		e.workers[i] = Worker{
			id:      i,
			sched:   core.NewScheduler(core.FLB{}),
			resched: core.NewRescheduler(),
		}
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return len(e.workers) }

// Worker returns worker i's arenas for callers running their own
// long-lived dispatch loop (the flbd service pool) instead of a batch.
// The Each contract carries over: at any moment a given worker must be
// driven by at most one goroutine, and external use must not overlap a
// running Each on the same engine.
func (e *Engine) Worker(i int) *Worker { return &e.workers[i] }

// Each runs fn(worker, i) for every i in [0, n), fanning the indexes out
// over the pool through a bounded queue. fn must write only into per-i
// slots (plus the worker's own arenas); under that contract the results
// are byte-identical to the serial loop for any worker count. With one
// worker (or one job) the batch runs inline on the calling goroutine —
// no queue, no goroutines, no allocations.
//
// All n jobs are attempted even after a failure (they are cheap relative
// to coordination and must not leak goroutines); the returned error is
// the one the serial loop would have returned: the failure with the
// lowest job index.
func (e *Engine) Each(n int, fn func(w *Worker, i int) error) error {
	return e.EachCtx(context.Background(), n, fn)
}

// EachCtx is Each under a context: once ctx is done, no further job
// starts — jobs already running are never interrupted, so fn keeps the
// batch invariants, but every job that had not started fails with
// ctx.Err() recorded at its own index, whether it was still waiting for
// dispatch or already sitting in the queue. The lowest-failing-index
// error contract therefore holds under cancellation too: if every
// started job succeeded, the returned error is ctx.Err() (the first job
// not started is the lowest failure); if an earlier job failed on its
// own, that error wins exactly as in the serial loop. fn that wants
// cancellation inside a job must watch ctx itself.
func (e *Engine) EachCtx(ctx context.Context, n int, fn func(w *Worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	// A context that is already done dispatches nothing: the whole batch
	// fails with ctx.Err() before any worker is consulted, so callers can
	// rely on "canceled before Each means no job ran".
	if err := ctx.Err(); err != nil {
		return err
	}
	done := ctx.Done()
	if len(e.workers) == 1 || n == 1 {
		w := &e.workers[0]
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int, len(e.workers))
	var be batchErr
	var wg sync.WaitGroup
	for k := range e.workers {
		w := &e.workers[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work(ctx, w, jobs, fn, &be)
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-done:
			// Everything not yet handed to the queue fails here, at its
			// own index, with the context's error; work fails the jobs
			// already in the queue the same way.
			err := ctx.Err()
			for ; i < n; i++ {
				be.record(i, err)
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	//flb:unguarded wg.Wait joined every writer; nothing races with this read
	return be.err
}

// work is one worker's job loop: pull an index, run the job, record a
// failure. It is the engine's hot path — per job it must do nothing but
// dispatch, so batch throughput is the arenas' throughput. A job pulled
// after ctx is done does not start: the feed loop's select may still
// pick a free queue slot over the closed done channel, and jobs queued
// before the cancel are still in the buffer, so the check is made here,
// where a job starts, as the inline path makes it.
//
//flb:hotpath
func (e *Engine) work(ctx context.Context, w *Worker, jobs <-chan int, fn func(w *Worker, i int) error, be *batchErr) {
	for i := range jobs {
		if err := ctx.Err(); err != nil {
			be.record(i, err)
			continue
		}
		if err := fn(w, i); err != nil {
			be.record(i, err)
		}
	}
}

// batchErr keeps the failure with the lowest job index, so the batch's
// error is deterministic under any interleaving.
type batchErr struct {
	mu sync.Mutex
	//flb:guarded-by mu
	idx int
	//flb:guarded-by mu
	err error
}

func (b *batchErr) record(i int, err error) {
	b.mu.Lock()
	if b.err == nil || i < b.idx {
		b.idx, b.err = i, err
	}
	b.mu.Unlock()
}
