package flb

import (
	"context"
	"errors"
	"io"
	"strings"
	"time"

	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/memo"
	"flb/internal/obs"
	"flb/internal/sim"
)

// Observability surface, re-exported from internal/obs so users never
// import internal packages. An Observer receives the typed event stream
// of scheduling and execution runs; see the Sink contract in
// internal/obs for the overhead discipline (a nil observer costs one
// branch per event site and zero allocations).
type (
	// Observer consumes scheduling/execution events; implementations
	// should embed NopObserver to stay compatible as events are added.
	Observer = obs.Sink
	// NopObserver ignores every event; embed it in partial observers.
	NopObserver = obs.NopSink
	// Recorder stores every event in reusable in-memory arenas, in
	// deterministic emission order.
	Recorder = obs.Recorder
	// ChromeTrace streams events as Chrome Trace Event JSON (load the
	// output in chrome://tracing or ui.perfetto.dev).
	ChromeTrace = obs.ChromeTrace
	// Telemetry aggregates events into counters and histograms.
	Telemetry = obs.Metrics
	// StepRecorder reconstructs the paper's Table 1 Steps from the
	// scheduler's event stream.
	StepRecorder = core.StepRecorder
	// CacheStats is the schedule-cache counter snapshot event emitted to
	// observers after cached runs (see WithCache).
	CacheStats = obs.CacheStats
)

// NewRecorder returns an empty in-memory event recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// NewChromeTrace returns an observer streaming Chrome Trace Event JSON to
// w. Close it after the observed runs to terminate the document.
func NewChromeTrace(w io.Writer) *ChromeTrace { return obs.NewChromeTrace(w) }

// NewTelemetry returns an empty aggregating observer.
func NewTelemetry() *Telemetry { return obs.NewMetrics() }

// NewStepRecorder returns an observer appending one Step per scheduling
// decision to *steps — the rows of the paper's Table 1 (render them with
// FormatTrace).
func NewStepRecorder(steps *[]Step) *StepRecorder { return core.NewStepRecorder(steps) }

// TeeObservers fans the event stream out to a then b; nil arguments are
// dropped.
func TeeObservers(a, b Observer) Observer { return obs.Tee(a, b) }

// Options collects the knobs of Run, RunBatch and Execute. The zero
// value — the FLB algorithm on a single-processor clique, seed 1, exact
// costs, no faults, no observer — is what a bare Run(g) uses. Construct
// it implicitly through Option values; it has no exported fields so
// knobs can grow without breaking callers.
type Options struct {
	sys       System
	hasSys    bool
	algorithm string
	seed      int64
	hasSeed   bool
	epsComp   float64
	epsComm   float64
	plan      FaultPlan
	observer  Observer
	ctx       context.Context
	workers   int
	cache     *memo.Cache
}

// Option configures one knob; pass any number to Run, RunBatch or
// Execute.
type Option func(*Options)

// DefaultSeed is the seed Run, RunBatch and Execute use when WithSeed is
// not given (it matches the flbsched default).
const DefaultSeed int64 = 1

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	if !o.hasSeed {
		o.seed = DefaultSeed
	}
	return o
}

// system resolves the target machine: the last WithSystem if any, else
// the single-processor clique (scheduling's identity machine — every
// algorithm degenerates to a topological serialization on it).
func (o *Options) system() System {
	if o.hasSys {
		return o.sys
	}
	return machine.NewSystem(1)
}

// WithSystem sets the target machine of Run and RunBatch: processor
// count, communication model and — on uniformly related machines — the
// per-processor speed factors. Build one with NewSystem:
//
//	s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(4)))
//	s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(4, flb.WithSpeeds([]float64{2, 2, 1, 1}))))
//
// The default is the single-processor clique. Execute ignores it — a
// schedule already carries its system.
func WithSystem(sys System) Option {
	return func(o *Options) { o.sys, o.hasSys = sys, true }
}

// WithAlgorithm selects the scheduling algorithm by registry name
// (case-insensitive; see Algorithms). The default is the paper's FLB.
// Decision events (SchedStep, TaskReady, TaskDemoted) are emitted only by
// FLB; other algorithms schedule unobserved.
func WithAlgorithm(name string) Option {
	return func(o *Options) { o.algorithm = name }
}

// WithSeed sets the seed driving every randomized component: jitter
// streams (independently derived per stream) and randomized tie-breaking
// in algorithms that use it. The default is DefaultSeed.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.seed, o.hasSeed = seed, true }
}

// WithJitter makes Execute perturb actual costs: computation by a uniform
// factor in [1-epsComp, 1+epsComp], communication likewise with epsComm.
// A zero epsilon leaves that stream exact and undrawn, so enabling one
// never shifts the other's sequence. The default is exact costs.
func WithJitter(epsComp, epsComm float64) Option {
	return func(o *Options) { o.epsComp, o.epsComm = epsComp, epsComm }
}

// WithFaults makes Execute inject the failures described by plan:
// fail-stop crashes, lossy messages, and the plan's repair strategy after
// every crash. Execute has one engine, and the zero plan — the default —
// is its fault-free run, so WithFaults(FaultPlan{}) changes nothing.
func WithFaults(plan FaultPlan) Option {
	return func(o *Options) { o.plan = plan }
}

// WithObserver streams the run's events into s: scheduler decisions from
// Run (FLB only), the execution timeline, messages, crashes and
// repairs from Execute. A nil observer disables observability — the
// zero-overhead default.
func WithObserver(s Observer) Option {
	return func(o *Options) { o.observer = s }
}

// WithWorkers sets the worker-pool size of RunBatch and ExecuteBatch;
// n <= 0 (the default) selects GOMAXPROCS. Results are byte-identical
// for every worker count, so n tunes only throughput. Run and Execute
// ignore it — a single job has nothing to fan out.
func WithWorkers(n int) Option {
	return func(o *Options) { o.workers = n }
}

// WithContext gives Execute a cancellation and deadline budget: while ctx
// has room crashes are repaired with the full FLB reschedule; once the
// deadline passed — or the time left is under four times the previous FLB
// repair's cost — remaining crashes degrade to the cheap migrate-in-place
// repair. A canceled context aborts the run; a plain exceeded deadline
// does not. The plan's Repair mode is ignored when a context is set.
//
// RunBatch and ExecuteBatch additionally start no further job once ctx
// is done: running jobs complete, every job not yet started fails with
// ctx.Err(), and the batch error keeps the lowest-failing-index contract
// (see par.Engine.EachCtx).
//
// Run's FLB path (cached or not) is cooperatively cancelable too: the
// scheduling loop polls ctx every 4096 placements and aborts with an
// error wrapping ctx.Err() — here a done context always aborts, deadline
// or not, because a partial schedule is useless. Registry algorithms
// selected by WithAlgorithm ignore ctx.
func WithContext(ctx context.Context) Option {
	return func(o *Options) { o.ctx = ctx }
}

// Run schedules g, by default with FLB on a single-processor clique.
// Options select the machine, the algorithm and seed, and attach an
// observer:
//
//	s, err := flb.Run(g,
//		flb.WithSystem(flb.NewSystem(4)),
//		flb.WithAlgorithm("mcp"), flb.WithSeed(7))
func Run(g *Graph, opts ...Option) (*Schedule, error) {
	o := buildOptions(opts)
	sys := o.system()
	// The FLB fast path (optionally memoized via WithCache), or a registry
	// algorithm by name.
	if o.algorithm == "" || strings.EqualFold(o.algorithm, "flb") {
		if o.cache == nil {
			return runFLB(g, sys, &o)
		}
		return runCached(g, sys, &o)
	}
	a, err := NewAlgorithm(o.algorithm, o.seed)
	if err != nil {
		return nil, err
	}
	return a.Schedule(g, sys)
}

// runFLB is the uncached FLB dispatch of Run. A WithContext ctx makes the
// run cooperatively cancelable: the core loop polls it every 4096
// placements and aborts with a wrapped ctx.Err(), so a Run over a
// million-task graph stops within a fraction of its schedule time instead
// of completing doomed work.
func runFLB(g *Graph, sys System, o *Options) (*Schedule, error) {
	f := core.FLB{Sink: o.observer}
	if o.ctx != nil {
		return f.ScheduleContext(o.ctx, g, sys)
	}
	return f.Schedule(g, sys)
}

// runCached is the FLB path of Run behind WithCache: look the problem
// up by fingerprint (exact tier always; near-hit tier when the cache has
// it enabled), fall back to a cold run and insert the result. Observed
// runs skip the lookup — the observer's contract is the cold run's full
// decision stream, which a hit cannot replay — but still insert, and
// receive one CacheStats snapshot after the run. Lookups and insertions
// deliberately skip CheckInputs: a cold run reports identical errors,
// and nothing is inserted on failure.
func runCached(g *Graph, sys System, o *Options) (*Schedule, error) {
	key := memo.KeyOf(g, sys, "flb", o.seed)
	if o.observer == nil {
		if s, ok := o.cache.Get(g, sys, key, true); ok {
			return s, nil
		}
	}
	s, err := runFLB(g, sys, o)
	if err != nil {
		return nil, err
	}
	o.cache.Put(g, sys, key, s)
	if o.observer != nil {
		o.observer.CacheStats(o.cache.StatsEvent())
	}
	return s, nil
}

// ExecResult is the outcome of an Execute run: the simulated times (the
// embedded SimResult), the processor each task finally ran on, and the
// fault bookkeeping (Crashes, Reschedules, Retries, ...), which stays
// zero on a fault-free run — the zero-plan run of the one engine.
type ExecResult = sim.FaultResult

// Execute runs schedule s self-timed: placement and per-processor order
// as scheduled, start times driven by actual completions and message
// arrivals. Options perturb the costs (WithJitter), inject failures
// (WithFaults), bound repair work (WithContext) and attach an observer
// (WithObserver):
//
//	r, err := flb.Execute(s, flb.WithJitter(0.3, 0.3), flb.WithSeed(7))
//
// Without jitter and faults it reproduces the schedule's own start times
// exactly. One engine runs every Execute: without WithFaults it runs the
// zero plan, which is the fault-free execution. The run is deterministic
// in (s, options); only wall-clock observations (WithContext decisions,
// RepairEvent.WallNanos) vary.
func Execute(s *Schedule, opts ...Option) (*ExecResult, error) {
	o := buildOptions(opts)
	return executeOne(s, &o, o.observer, nil)
}

// executeOne runs one schedule under the built options, emitting into
// sink. It is shared by Execute and ExecuteBatch: the batch path passes a
// per-job sink and the worker's Rescheduler arena (re); a nil re builds a
// fresh one, which produces bit-identical repairs (reschedule arenas are
// history-independent).
func executeOne(s *Schedule, o *Options, sink Observer, re *core.Rescheduler) (*ExecResult, error) {
	var choose sim.RepairChooser
	if o.ctx != nil {
		var err error
		if choose, err = deadlineChooser(o.ctx, re); err != nil {
			return nil, err
		}
	} else {
		choose = fixedChooser(o.plan.Repair, re)
	}
	return sim.Run(s, o.plan,
		jitterStream(o.seed, sim.StreamComp, o.epsComp),
		jitterStream(o.seed, sim.StreamComm, o.epsComm),
		sim.DeriveSeed(o.seed, sim.StreamLoss), choose, sink)
}

// deadlineChooser builds the graceful-degradation chooser of WithContext:
// full FLB reschedules while the deadline has room, migrate-in-place
// after. A nil re builds a private
// reschedule arena.
//
//flb:wallclock compares real repair cost against the context deadline to pick the degradation mode
func deadlineChooser(ctx context.Context, re *core.Rescheduler) (sim.RepairChooser, error) {
	// An expired deadline is not an abort: it means every repair degrades
	// to migrate. Only cancellation stops the run.
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	if re == nil {
		re = core.NewRescheduler()
	}
	var mig fault.MigrateRepairer
	var lastRepair time.Duration
	deadline, hasDeadline := ctx.Deadline()
	return func(fault.Crash, int) (fault.Repairer, error) {
		if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if hasDeadline {
			remaining := time.Until(deadline)
			if remaining <= 0 || (lastRepair > 0 && remaining < 4*lastRepair) {
				return &mig, nil
			}
		}
		return timedRepairer{re, &lastRepair}, nil
	}, nil
}
