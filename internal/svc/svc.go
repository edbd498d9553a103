// Package svc is the hardened scheduling service behind cmd/flbd: a
// long-lived HTTP daemon that accepts graph submissions and schedules them
// on a pool of workers, each owning a reusable FLB arena, engineered to
// degrade gracefully instead of falling over.
//
// # Robustness model
//
// Five mechanisms, layered (DESIGN.md §15):
//
//   - Admission control: submissions pass through one bounded queue.
//     When it is full the request is shed immediately with 429 and a
//     Retry-After estimate — the queue bound is what keeps accepted-
//     request latency bounded under any offered load.
//   - Per-request deadlines: every submission carries a context with a
//     deadline (client-set, capped by the server). A job whose deadline
//     expires while queued is answered 503 without running; a job that
//     reaches execution propagates the same context into the facade's
//     WithContext cancel/degrade path (repairs degrade from full FLB
//     reschedules to migrate-in-place as the deadline closes in).
//   - Panic isolation: a panic inside one job is recovered, counted,
//     and answered 500 — the daemon and its worker keep serving.
//   - Graceful drain: Drain flips the server to draining (readyz 503,
//     new submissions 503), closes the queue, and waits for every
//     admitted job to finish — the SIGTERM path of cmd/flbd.
//   - Hard input limits: body size, task and edge caps shared with the
//     graph parsers (graph.Limits), so oversized payloads fail 4xx
//     before they cost memory.
//
// # Determinism boundary
//
// The service shell is wall-clock territory (//flb:wallclock shells:
// queue-wait and latency measurement, Retry-After estimation, uptime).
// The scheduling core it drives stays deterministic: a submission's
// schedule depends only on (graph, system, algorithm, seed), never on
// arrival time, queue state or worker identity. Per-request default
// seeds derive from the request id via sim.DeriveSeed — never from the
// clock — and the scheduling seed defaults to the server's base seed so
// that repeat submissions are cache hits (see internal/memo).
package svc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flb"
	"flb/internal/algo/registry"
	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/memo"
	"flb/internal/obs"
	"flb/internal/schedule"
	"flb/internal/sim"
)

// Config parameterizes a Server. The zero value picks sensible defaults
// for every field.
type Config struct {
	// Workers is the scheduling worker-pool size; <= 0 selects
	// GOMAXPROCS. Each worker owns a reusable FLB arena and metrics sink.
	Workers int
	// QueueCap bounds the admission queue; <= 0 selects 64. Offered
	// load beyond workers + queue is shed with 429.
	QueueCap int
	// CacheCap sizes the schedule memo cache (entries); 0 disables
	// memoization, < 0 selects the default 512. An entry holds ≈16 bytes
	// per task of its problem (a placement record, not the graph).
	CacheCap int
	// MaxBodyBytes caps a submission body; <= 0 selects 8 MiB.
	MaxBodyBytes int64
	// MaxTasks and MaxEdges cap parsed graphs; 0 selects the graph
	// package defaults and a negative value graph.MaxCSR. The same
	// values bound the parsers and are reported in /metrics, so
	// documented and enforced limits agree.
	MaxTasks, MaxEdges int
	// BaseSeed seeds the deterministic defaults: the scheduling seed of
	// submissions that carry none, and the per-request execution
	// streams derived from it with sim.DeriveSeed.
	BaseSeed int64
	// DefaultProcs is the processor count of submissions that carry
	// none; <= 0 selects 8. MaxProcs caps the procs parameter;
	// <= 0 selects 4096.
	DefaultProcs, MaxProcs int
	// DefaultTimeout and MaxTimeout bound per-request deadlines;
	// <= 0 select 30s and 120s.
	DefaultTimeout, MaxTimeout time.Duration

	// testHook, when set, runs on the worker goroutine before each
	// admitted job executes. Tests use it to hold jobs in flight and to
	// inject panics; production leaves it nil.
	testHook func(*job)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheCap < 0 {
		c.CacheCap = 512
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultProcs <= 0 {
		c.DefaultProcs = 8
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	return c
}

// limits returns the parse limits shared between handlers and parsers.
func (c Config) limits() graph.Limits {
	return graph.Limits{MaxTasks: c.MaxTasks, MaxEdges: c.MaxEdges}
}

// Server states, the drain state machine: Accepting → Draining (queue
// closed, admitted jobs finishing) → Stopped (every worker joined).
const (
	stateAccepting = int32(iota)
	stateDraining
	stateStopped
)

func stateName(s int32) string {
	switch s {
	case stateAccepting:
		return "accepting"
	case stateDraining:
		return "draining"
	default:
		return "stopped"
	}
}

// job is one admitted submission on its way through the queue.
type job struct {
	id      uint64
	ctx     context.Context
	g       *graph.Graph
	sys     machine.System
	algo    string // registry name; "" is the cache-eligible FLB path
	seed    int64  // scheduling seed (cache key component)
	eseed   int64  // execution-stream seed (jitter, message loss)
	execute bool
	epsComp float64
	epsComm float64
	crashes []fault.Crash
	full    bool // include per-task assignments in the response
	enq     time.Time
	done    chan jobResult // buffered(1); the worker sends exactly once
}

type jobResult struct {
	status     int
	resp       *scheduleResponse
	errMsg     string
	retryAfter int // seconds; > 0 attaches a Retry-After header
}

func (j *job) finish(r jobResult) { j.done <- r }

// Server is the scheduling service. Create one with New (which starts
// the worker pool), serve Handler over HTTP, and stop with Drain.
type Server struct {
	cfg   Config
	cache *memo.Cache

	// admit guards the enqueue-vs-close race of the drain path: handlers
	// hold it shared while checking state and enqueueing; Drain holds it
	// exclusively while flipping state and closing the queue.
	admit sync.RWMutex
	queue chan *job
	state atomic.Int32
	wg    sync.WaitGroup

	reqID    atomic.Uint64
	inflight atomic.Int64
	start    time.Time

	// Shed/outcome counters (atomics: touched on handler goroutines).
	nRequests     atomic.Int64
	nOK           atomic.Int64
	nBadRequest   atomic.Int64
	nTooLarge     atomic.Int64
	nShedQueue    atomic.Int64
	nShedDeadline atomic.Int64
	nUnavailable  atomic.Int64
	nPanics       atomic.Int64
	nInternal     atomic.Int64

	// mu guards the aggregated run metrics and latency reservoirs,
	// written by workers after each job and read by /metrics.
	mu         sync.Mutex
	sched      SchedStats
	latMs      *reservoir
	queueMs    *reservoir
	ewmaJobSec float64
}

// New builds a Server and starts its worker pool. Callers must Drain it
// to release the workers.
//
//flb:wallclock records the service start time for the uptime gauge
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueCap),
		latMs:   newReservoir(8192),
		queueMs: newReservoir(8192),
		start:   time.Now(),
	}
	if cfg.CacheCap != 0 {
		s.cache = memo.NewCache(cfg.CacheCap)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Drain stops admission and waits for every admitted job: state flips to
// draining (readyz and new submissions answer 503), the queue is closed,
// and Drain returns once all workers have finished their jobs and exited
// — or with ctx's error if the deadline strikes first (workers keep
// finishing in the background; a second Drain call waits again).
func (s *Server) Drain(ctx context.Context) error {
	s.admit.Lock()
	if s.state.CompareAndSwap(stateAccepting, stateDraining) {
		close(s.queue)
	}
	s.admit.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.state.Store(stateStopped)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the server has left the accepting state.
func (s *Server) Draining() bool { return s.state.Load() != stateAccepting }

// worker is one service worker: it owns an FLB arena and the metrics
// sink that counts each job's scheduling decisions and execution, and
// serves admitted jobs until the queue closes. The sink observes only
// executions; a cold FLB run's decisions come from the arena's own
// counters (countSchedule), which cost no per-event sink call. Once a
// job is answered and cached the arena releases its graph, so an idle
// worker pins nothing of its last job.
func (s *Server) worker() {
	defer s.wg.Done()
	sc := core.NewScheduler(core.FLB{})
	m := obs.NewMetrics()
	for j := range s.queue {
		s.runJob(sc, m, j)
		sc.Release()
		s.inflight.Add(-1)
	}
}

// runJob executes one admitted job with panic isolation: a panicking
// job answers 500 and the worker moves on to the next one.
//
//flb:wallclock times queue wait and service latency for the metrics reservoirs
func (s *Server) runJob(sc *core.Scheduler, m *obs.Metrics, j *job) {
	started := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.nPanics.Add(1)
			j.finish(jobResult{status: 500, errMsg: fmt.Sprintf("panic in job %d: %v", j.id, r)})
		}
	}()
	if err := j.ctx.Err(); err != nil {
		// The deadline lapsed (or the client left) while the job sat in
		// the queue: shed it without paying for the run.
		s.nShedDeadline.Add(1)
		j.finish(jobResult{status: 503, errMsg: "deadline expired while queued", retryAfter: s.retryAfterSeconds()})
		return
	}
	if hook := s.cfg.testHook; hook != nil {
		hook(j)
	}
	m.Reset()
	resp, status, errMsg := s.schedule(sc, m, j)
	if resp == nil {
		j.finish(jobResult{status: status, errMsg: errMsg})
		return
	}
	queueWait := started.Sub(j.enq)
	svcTime := time.Since(started)
	resp.QueueMs = durMs(queueWait)
	resp.RunMs = durMs(svcTime)
	// Count the job before answering it, so a client holding its answer
	// finds the job in /metrics.
	s.observe(m, queueWait, svcTime)
	j.finish(jobResult{status: 200, resp: resp})
}

// schedule runs the job's scheduling (and optional execution) on the
// worker's arena, counting both into m. It returns a response, or an
// HTTP status and message when the run failed.
func (s *Server) schedule(sc *core.Scheduler, m *obs.Metrics, j *job) (*scheduleResponse, int, string) {
	var out *schedule.Schedule
	cached := false
	if j.algo == "" {
		var key memo.Key
		if s.cache != nil {
			key = memo.KeyOf(j.g, j.sys, "flb", j.seed)
			if hit, ok := s.cache.Get(j.g, j.sys, key, false); ok {
				out, cached = hit, true
			}
		}
		if out == nil {
			cold, err := sc.Schedule(j.g, j.sys)
			if err != nil {
				return nil, 500, err.Error()
			}
			countSchedule(m, sc.Counts())
			if s.cache != nil {
				// Put copies the arena schedule's placements into the cache.
				s.cache.Put(j.g, j.sys, key, cold)
			}
			// Arena-owned: consumed fully before this worker's next job.
			out = cold
		}
	} else {
		a, err := registry.New(j.algo, j.seed)
		if err != nil {
			return nil, 500, err.Error()
		}
		cold, err := a.Schedule(j.g, j.sys)
		if err != nil {
			return nil, 500, err.Error()
		}
		out = cold
	}
	resp := newScheduleResponse(j, out, cached)
	if j.execute {
		er, err := flb.Execute(out,
			flb.WithContext(j.ctx),
			flb.WithJitter(j.epsComp, j.epsComm),
			flb.WithFaults(fault.Plan{Crashes: j.crashes}),
			flb.WithSeed(j.eseed),
			flb.WithObserver(m))
		if err != nil {
			if j.ctx.Err() != nil {
				// The client left (or the deadline lapsed) mid-run: counted
				// with the queue sheds, because countStatus skips 503s.
				s.nShedDeadline.Add(1)
				return nil, 503, "canceled: " + err.Error()
			}
			return nil, 500, err.Error()
		}
		resp.Executed = &executeResponse{
			Makespan:    er.Makespan,
			Crashes:     er.Crashes,
			Survivors:   er.Survivors,
			Reschedules: er.Reschedules,
			Recomputed:  er.Recomputed,
			Retries:     er.Retries,
			Seed:        j.eseed,
		}
	}
	return resp, 0, ""
}

// countSchedule folds one cold FLB run into m: the run and its decision
// counters, as an obs.Metrics attached to the arena would count them.
func countSchedule(m *obs.Metrics, c core.Counts) {
	m.Runs[obs.KindSchedule]++
	m.Steps += c.Steps
	m.EPWins += c.EPWins
	m.NonEPWins += c.Steps - c.EPWins
	m.Demotions += c.Demotions
}

// observe folds one finished job's counters and timings into the
// service totals under the lock. A failed or panicked job never gets
// here, so it counts nothing.
func (s *Server) observe(m *obs.Metrics, queueWait, svcTime time.Duration) {
	s.mu.Lock()
	s.sched.add(m)
	s.queueMs.add(durMs(queueWait))
	s.latMs.add(durMs(queueWait + svcTime))
	// EWMA of per-job service time feeds the Retry-After estimate.
	const alpha = 0.2
	sec := svcTime.Seconds()
	if s.ewmaJobSec == 0 {
		s.ewmaJobSec = sec
	} else {
		s.ewmaJobSec += alpha * (sec - s.ewmaJobSec)
	}
	s.mu.Unlock()
}

// deriveExecSeed is the per-request execution-stream seed: derived from
// the request id, never the clock, so a replayed daemon lifetime would
// reproduce the same streams.
func (s *Server) deriveExecSeed(id uint64) int64 {
	return sim.DeriveSeed(s.cfg.BaseSeed, id)
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
