package flb

import (
	"context"
	"strings"

	"flb/internal/algo/registry"
	"flb/internal/memo"
	"flb/internal/obs"
	"flb/internal/par"
)

// batchCtx resolves the context a batch dispatches under: WithContext if
// given, else Background (dispatch never stops on its own).
func batchCtx(o *Options) context.Context {
	if o.ctx != nil {
		return o.ctx
	}
	return context.Background()
}

// RunBatch schedules every graph in graphs on the machine selected by
// WithSystem (the single-processor clique by default), fanning the jobs
// out over a worker pool (WithWorkers; GOMAXPROCS workers by default).
// Each worker owns its own reusable scheduling arenas, so no mutable
// state is shared across jobs; result i is byte-identical to what the
// serial loop
//
//	for i, g := range graphs { out[i], err = flb.Run(g, opts...) }
//
// would produce, regardless of the worker count or how jobs interleave.
// Graphs may repeat across slots only if frozen (Graph.Freeze); distinct
// unfrozen graphs are fine because each is read by exactly one job.
//
// An observer set with WithObserver receives the events of all jobs in
// job-index order — exactly the serial loop's stream — never concurrently
// (see the batch contract in internal/obs). If any job fails, RunBatch
// returns the error of the lowest failing job index and the observer
// receives no events.
func RunBatch(graphs []*Graph, opts ...Option) ([]*Schedule, error) {
	o := buildOptions(opts)
	sys := o.system()
	flbPath := o.algorithm == "" || strings.EqualFold(o.algorithm, "flb")
	// Batch-wide knobs are validated once, before the pool spins up:
	// every job would re-derive the same verdict on the same algorithm
	// name and system, so discovering it per job wastes a pool spin-up
	// and N-1 redundant checks. Ordered to match the serial loop's error
	// precedence — Run resolves the algorithm before its Schedule call
	// validates the system.
	if !flbPath {
		if _, err := NewAlgorithm(o.algorithm, o.seed); err != nil {
			return nil, err
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	eng := par.New(o.workers)
	out := make([]*Schedule, len(graphs))
	tee := newSinkTee(o.observer, eng.Workers(), len(graphs))
	err := eng.EachCtx(batchCtx(&o), len(graphs), func(w *par.Worker, i int) error {
		if flbPath {
			// Exact-tier cache lookup, unobserved jobs only: a hit's bytes
			// equal the cold run's bytes, so results stay independent of
			// which jobs hit — the near tier would not be (its output
			// depends on cache-warm order) and is never consulted here.
			var key memo.Key
			if o.cache != nil {
				key = memo.KeyOf(graphs[i], sys, "flb", o.seed)
				if o.observer == nil {
					if s, ok := o.cache.Get(graphs[i], sys, key, false); ok {
						out[i] = s
						return nil
					}
				}
			}
			sc := w.Scheduler()
			sc.Observe(tee.sink(i))
			s, err := sc.Schedule(graphs[i], sys)
			if err != nil {
				return err
			}
			// The arena's schedule is only valid until the worker's next
			// job; the slot keeps its own copy.
			out[i] = s.Clone()
			if o.cache != nil {
				// Put deep-copies; concurrent misses on one problem insert
				// identical entries (the second is a touch).
				o.cache.Put(graphs[i], sys, key, s)
			}
			return nil
		}
		a, err := registry.New(o.algorithm, o.seed)
		if err != nil {
			return err
		}
		s, err := a.Schedule(graphs[i], sys)
		if err != nil {
			return err
		}
		out[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	tee.flush()
	if o.cache != nil && o.observer != nil {
		// One cumulative snapshot per batch, after the replayed job
		// streams, from the caller's goroutine (the sink contract).
		o.observer.CacheStats(o.cache.StatsEvent())
	}
	return out, nil
}

// ExecuteBatch executes every schedule in scheds self-timed, fanning the
// jobs out over a worker pool (WithWorkers) with per-worker repair
// arenas. Result i is byte-identical to the serial loop
//
//	for i, s := range scheds { out[i], err = flb.Execute(s, opts...) }
//
// for any worker count — jitter, faults and context-budgeted repair
// included (only wall-clock observations such as RepairEvent.WallNanos
// vary, exactly as in Execute). The observer contract matches RunBatch:
// all events arrive in job-index order, never concurrently, and a failed
// batch emits none.
func ExecuteBatch(scheds []*Schedule, opts ...Option) ([]*ExecResult, error) {
	o := buildOptions(opts)
	eng := par.New(o.workers)
	out := make([]*ExecResult, len(scheds))
	tee := newSinkTee(o.observer, eng.Workers(), len(scheds))
	err := eng.EachCtx(batchCtx(&o), len(scheds), func(w *par.Worker, i int) error {
		r, err := executeOne(scheds[i], &o, tee.sink(i), w.Rescheduler())
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	tee.flush()
	return out, nil
}

// sinkTee implements the deterministic sink-sharing contract of the batch
// APIs: the user's observer is single-goroutine by contract, so with more
// than one worker each job records its events into a private per-slot
// Recorder and flush replays the recorders in job-index order — the byte
// stream of the serial loop. With one worker (or no observer) jobs drive
// the user's sink directly and nothing is buffered.
type sinkTee struct {
	user Observer
	recs []*obs.Recorder
}

func newSinkTee(user Observer, workers, n int) *sinkTee {
	t := &sinkTee{user: user}
	if user != nil && workers > 1 {
		t.recs = make([]*obs.Recorder, n)
	}
	return t
}

// sink returns the observer job i must emit into. Safe to call from
// worker goroutines: each job touches only its own slot.
func (t *sinkTee) sink(i int) Observer {
	if t.user == nil || t.recs == nil {
		return t.user
	}
	t.recs[i] = obs.NewRecorder()
	return t.recs[i]
}

// flush replays the buffered per-job streams into the user's observer in
// job-index order. Called once, after the batch, from the caller's
// goroutine.
func (t *sinkTee) flush() {
	if t.user == nil || t.recs == nil {
		return
	}
	for _, r := range t.recs {
		if r != nil {
			r.Replay(t.user)
		}
	}
}
