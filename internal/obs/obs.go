// Package obs is the observability layer of the module: a typed event
// stream emitted by the instrumented hot loops (the FLB scheduler in
// internal/core, the execution simulators in internal/sim) plus the
// concrete sinks that consume it — an arena-backed in-memory Recorder, a
// Chrome Trace Event exporter (ChromeTrace) and an aggregating Metrics
// sink.
//
// # Overhead discipline
//
// Observability must cost nothing when disabled. Every instrumented
// function holds a Sink interface value and guards each emission with a
// nil check:
//
//	if sink != nil {
//		sink.TaskFinish(obs.TaskEvent{Task: t, Proc: p, Start: st, Finish: ft})
//	}
//
// With a nil sink the guard is a single branch and the event literal is
// never built; the zero-allocation property of the scheduling hot path
// (DESIGN.md §8) is preserved and pinned by AllocsPerRun tests. To keep
// the enabled path cheap too, the contract for Sink implementations is:
//
//   - every method takes one concrete struct argument by value (no
//     interface boxing at call sites, no variadics, no maps);
//   - event structs contain no pointers, so passing them never forces a
//     heap allocation in the caller;
//   - sinks may allocate (amortized, arena-style where possible), the
//     instrumented loops may not. The flblint hotpathalloc analyzer
//     enforces this split: //flb:alloc-ok is banned inside core/sim hot
//     paths and allowed only in sink implementations.
//
// # Concurrency and the batch sink-sharing contract
//
// Sinks are driven by a single goroutine per run and need not be safe for
// concurrent use; use one sink per concurrently observed run. None of the
// sinks in this package (Recorder, Metrics, ChromeTrace, Tee) carry
// internal locking — sharing one across goroutines is a data race.
//
// Batch runners (internal/par via flb.RunBatch/ExecuteBatch, the
// internal/bench sweeps) uphold that contract while fanning jobs out:
// each concurrent job emits into a private per-job Recorder, and after
// the batch the recorders are replayed into the user's sink in job-index
// order. Because Replay preserves emission order exactly, the user's sink
// observes the same single-goroutine byte stream the serial loop would
// have produced — it never needs locking and never sees interleaving,
// regardless of the worker count.
package obs

// Kind labels which instrumented loop a Begin/End pair brackets.
type Kind uint8

const (
	// KindSchedule is a compile-time scheduling run (core.FLB).
	KindSchedule Kind = 1 + iota
	// KindSim is a self-timed execution, with or without injected
	// faults (sim.Run).
	KindSim
	// KindSimContended is a contention-aware execution (sim.RunContended).
	KindSimContended
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSchedule:
		return "schedule"
	case KindSim:
		return "sim"
	case KindSimContended:
		return "sim-contended"
	default:
		return "unknown"
	}
}

// Begin opens one observed run.
type Begin struct {
	Kind  Kind
	Tasks int // graph size V
	Procs int // machine size P
}

// End closes one observed run.
type End struct {
	Kind     Kind
	Makespan float64
}

// SchedStep is one scheduling decision: the paper's ScheduleTask
// comparison between the best EP-type candidate and the best non-EP-type
// candidate, the winner, and the list sizes at decision time.
type SchedStep struct {
	// Iter numbers the decision within its run, from 0.
	Iter int

	// The placement performed: Task starts on Proc at Start.
	Task   int
	Proc   int
	Start  float64
	Finish float64

	// HaveEP reports whether an EP-type candidate existed; EPTask on its
	// enabling processor EPProc could start at EPStart.
	HaveEP  bool
	EPTask  int
	EPProc  int
	EPStart float64

	// HaveNonEP reports whether a non-EP-type candidate existed; NonEPTask
	// on the earliest-idle processor NonEPProc could start at NonEPStart.
	HaveNonEP  bool
	NonEPTask  int
	NonEPProc  int
	NonEPStart float64

	// ChoseEP reports which candidate won; Tie whether both candidates had
	// bit-identical earliest start times (the §4.1 tie rule applied).
	ChoseEP bool
	Tie     bool

	// List sizes when the decision was taken: the non-EP heap and the
	// active-processor heap (processors with a non-empty EP list).
	NonEPLen    int
	ActiveProcs int
}

// TaskReady records a task entering the ready lists: its last message
// arrival time, enabling processor and classification (paper §4.1).
type TaskReady struct {
	Task int
	// LMT is the last message arrival time; EMT the effective message
	// arrival time on the enabling processor (meaningful when IsEP).
	LMT, EMT float64
	// BL is the static bottom level (the tie-breaking priority).
	BL float64
	// EP is the enabling processor (-1 for entry tasks).
	EP int
	// IsEP reports the classification: true when LMT >= PRT(EP).
	IsEP bool
}

// TaskDemoted records an EP-type task moving to the non-EP list after its
// enabling processor's ready time grew past its LMT (UpdateTaskLists).
type TaskDemoted struct {
	Task int
	// Proc is the enabling processor whose EP list the task left.
	Proc int
	LMT  float64
}

// TaskEvent is a simulated task execution span. Both TaskStart and
// TaskFinish carry the full span: the simulators know the finish time the
// moment the task starts.
type TaskEvent struct {
	Task          int
	Proc          int
	Start, Finish float64
}

// Message is one simulated inter-processor message: the output of task
// From traveling edge Edge to task To. Send is the producer's finish
// time, Arrive when the data is available on ToProc (including any retry
// delay). Retries and RetryDelay are nonzero only on lossy networks.
type Message struct {
	Edge       int
	From, To   int
	FromProc   int
	ToProc     int
	Send       float64
	Arrive     float64
	Retries    int
	RetryDelay float64
}

// CrashEvent is a fail-stop processor failure applied at Time.
type CrashEvent struct {
	Proc int
	Time float64
}

// RepairEvent is one online repair epoch: after the crash of Proc at
// Time, Pending tasks were replanned onto the survivors. WallNanos is the
// wall-clock cost of the repair — the one nondeterministic field of the
// event stream; exporters that promise byte-determinism must ignore it.
type RepairEvent struct {
	Proc      int
	Time      float64
	Pending   int
	WallNanos int64
}

// CacheStats is a snapshot of a schedule cache's cumulative counters
// (internal/memo), emitted by the facade once per cached observed run —
// and once per batch — after the scheduling work, from the caller's
// goroutine. The counters are cumulative over the cache's lifetime, so a
// consumer keeps the latest snapshot rather than summing events.
type CacheStats struct {
	Gets      int64
	Hits      int64
	NearHits  int64
	Puts      int64
	Evictions int64
	// Len and Cap are the cache's current and maximum entry counts.
	Len, Cap int
	// Bytes is the memory the entries' placement records and weight
	// snapshots hold.
	Bytes int64
}

// Sink receives the event stream of one or more observed runs. All
// methods take concrete struct arguments (never interfaces) so emission
// sites do not box; see the package comment for the full contract.
// Implementations should embed NopSink to remain compatible as events are
// added.
type Sink interface {
	Begin(e Begin)
	SchedStep(e SchedStep)
	TaskReady(e TaskReady)
	TaskDemoted(e TaskDemoted)
	TaskStart(e TaskEvent)
	TaskFinish(e TaskEvent)
	MessageSend(e Message)
	MessageArrive(e Message)
	MessageRetry(e Message)
	Crash(e CrashEvent)
	Repair(e RepairEvent)
	CacheStats(e CacheStats)
	End(e End)
}

// NopSink is a Sink that ignores every event. Embed it to implement only
// the events a concrete sink cares about.
type NopSink struct{}

func (NopSink) Begin(Begin)             {}
func (NopSink) SchedStep(SchedStep)     {}
func (NopSink) TaskReady(TaskReady)     {}
func (NopSink) TaskDemoted(TaskDemoted) {}
func (NopSink) TaskStart(TaskEvent)     {}
func (NopSink) TaskFinish(TaskEvent)    {}
func (NopSink) MessageSend(Message)     {}
func (NopSink) MessageArrive(Message)   {}
func (NopSink) MessageRetry(Message)    {}
func (NopSink) Crash(CrashEvent)        {}
func (NopSink) Repair(RepairEvent)      {}
func (NopSink) CacheStats(CacheStats)   {}
func (NopSink) End(End)                 {}

// tee fans every event out to two sinks in order.
type tee struct{ a, b Sink }

// Tee returns a sink forwarding every event to a then b. Nil arguments
// are dropped; if fewer than two sinks remain the survivor (or nil) is
// returned directly, so Tee never adds indirection over a single sink.
func Tee(a, b Sink) Sink {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &tee{a: a, b: b}
}

func (t *tee) Begin(e Begin)             { t.a.Begin(e); t.b.Begin(e) }
func (t *tee) SchedStep(e SchedStep)     { t.a.SchedStep(e); t.b.SchedStep(e) }
func (t *tee) TaskReady(e TaskReady)     { t.a.TaskReady(e); t.b.TaskReady(e) }
func (t *tee) TaskDemoted(e TaskDemoted) { t.a.TaskDemoted(e); t.b.TaskDemoted(e) }
func (t *tee) TaskStart(e TaskEvent)     { t.a.TaskStart(e); t.b.TaskStart(e) }
func (t *tee) TaskFinish(e TaskEvent)    { t.a.TaskFinish(e); t.b.TaskFinish(e) }
func (t *tee) MessageSend(e Message)     { t.a.MessageSend(e); t.b.MessageSend(e) }
func (t *tee) MessageArrive(e Message)   { t.a.MessageArrive(e); t.b.MessageArrive(e) }
func (t *tee) MessageRetry(e Message)    { t.a.MessageRetry(e); t.b.MessageRetry(e) }
func (t *tee) Crash(e CrashEvent)        { t.a.Crash(e); t.b.Crash(e) }
func (t *tee) Repair(e RepairEvent)      { t.a.Repair(e); t.b.Repair(e) }
func (t *tee) CacheStats(e CacheStats)   { t.a.CacheStats(e); t.b.CacheStats(e) }
func (t *tee) End(e End)                 { t.a.End(e); t.b.End(e) }
