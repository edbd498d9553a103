package obs_test

import (
	"reflect"
	"strings"
	"testing"

	"flb/internal/obs"
)

// feed drives one synthetic observed run covering every event kind into s.
func feed(s obs.Sink) {
	s.Begin(obs.Begin{Kind: obs.KindSchedule, Tasks: 3, Procs: 2})
	s.TaskReady(obs.TaskReady{Task: 0, BL: 10, EP: -1})
	s.SchedStep(obs.SchedStep{Iter: 0, Task: 0, Proc: 0, Finish: 2, HaveNonEP: true, NonEPTask: 0, NonEPLen: 1, ActiveProcs: 0})
	s.TaskReady(obs.TaskReady{Task: 1, LMT: 2, EMT: 2, BL: 8, EP: 0, IsEP: true})
	s.TaskReady(obs.TaskReady{Task: 2, LMT: 3, BL: 7, EP: 0})
	s.TaskDemoted(obs.TaskDemoted{Task: 1, Proc: 0, LMT: 2})
	s.SchedStep(obs.SchedStep{Iter: 1, Task: 1, Proc: 1, Start: 3, Finish: 5, HaveEP: true, EPTask: 1, HaveNonEP: true, NonEPTask: 2, ChoseEP: true, Tie: true, NonEPLen: 2, ActiveProcs: 1})
	s.SchedStep(obs.SchedStep{Iter: 2, Task: 2, Proc: 0, Start: 3, Finish: 6, HaveNonEP: true, NonEPTask: 2, NonEPLen: 1})
	s.End(obs.End{Kind: obs.KindSchedule, Makespan: 6})

	s.Begin(obs.Begin{Kind: obs.KindSim, Tasks: 3, Procs: 2})
	s.TaskStart(obs.TaskEvent{Task: 0, Proc: 0, Start: 0, Finish: 2})
	s.TaskFinish(obs.TaskEvent{Task: 0, Proc: 0, Start: 0, Finish: 2})
	s.Crash(obs.CrashEvent{Proc: 1, Time: 2.5})
	s.Repair(obs.RepairEvent{Proc: 1, Time: 2.5, Pending: 2, WallNanos: 12345})
	s.TaskStart(obs.TaskEvent{Task: 1, Proc: 0, Start: 3, Finish: 5})
	s.MessageSend(obs.Message{Edge: 0, From: 0, To: 1, FromProc: 0, ToProc: 0, Send: 2, Arrive: 2})
	s.MessageArrive(obs.Message{Edge: 0, From: 0, To: 1, FromProc: 0, ToProc: 0, Send: 2, Arrive: 2})
	s.TaskFinish(obs.TaskEvent{Task: 1, Proc: 0, Start: 3, Finish: 5})
	s.TaskStart(obs.TaskEvent{Task: 2, Proc: 0, Start: 5, Finish: 8.5})
	s.MessageSend(obs.Message{Edge: 1, From: 0, To: 2, FromProc: 0, ToProc: 0, Send: 2, Arrive: 5.5, Retries: 2, RetryDelay: 3.5})
	s.MessageArrive(obs.Message{Edge: 1, From: 0, To: 2, FromProc: 0, ToProc: 0, Send: 2, Arrive: 5.5, Retries: 2, RetryDelay: 3.5})
	s.MessageRetry(obs.Message{Edge: 1, From: 0, To: 2, FromProc: 0, ToProc: 0, Send: 2, Arrive: 5.5, Retries: 2, RetryDelay: 3.5})
	s.TaskFinish(obs.TaskEvent{Task: 2, Proc: 0, Start: 5, Finish: 8.5})
	s.End(obs.End{Kind: obs.KindSim, Makespan: 8.5})
}

func TestKindString(t *testing.T) {
	want := map[obs.Kind]string{
		obs.KindSchedule:     "schedule",
		obs.KindSim:          "sim",
		obs.KindSimContended: "sim-contended",
		obs.Kind(99):         "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestRecorderReplay checks that Replay reproduces the recorded stream in
// arrival order: replaying one recorder into another yields an identical
// recording.
func TestRecorderReplay(t *testing.T) {
	r := obs.NewRecorder()
	feed(r)
	if r.Len() != 24 {
		t.Fatalf("Len = %d, want 24", r.Len())
	}
	r2 := obs.NewRecorder()
	r.Replay(r2)
	if !reflect.DeepEqual(r, r2) {
		t.Errorf("replayed recording differs from original:\n%+v\n%+v", r, r2)
	}
	// Typed accessors expose the arenas.
	if n := len(r.Steps()); n != 3 {
		t.Errorf("Steps: %d, want 3", n)
	}
	if n := len(r.TaskFinishes()); n != 3 {
		t.Errorf("TaskFinishes: %d, want 3", n)
	}
	if n := len(r.Messages()); n != 2 {
		t.Errorf("Messages: %d, want 2", n)
	}
	if n := len(r.Crashes()); n != 1 {
		t.Errorf("Crashes: %d, want 1", n)
	}
	if n := len(r.Repairs()); n != 1 {
		t.Errorf("Repairs: %d, want 1", n)
	}
}

// TestRecorderReset checks the recorder is reusable and deterministic:
// after Reset, re-recording the same stream yields an equal recording, and
// the steady state allocates nothing.
func TestRecorderReset(t *testing.T) {
	r := obs.NewRecorder()
	feed(r)
	first := obs.NewRecorder()
	r.Replay(first)

	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
	feed(r)
	if !reflect.DeepEqual(r, first) {
		t.Error("re-recorded stream differs from the first recording")
	}

	if allocs := testing.AllocsPerRun(20, func() {
		r.Reset()
		feed(r)
	}); allocs != 0 {
		t.Errorf("steady-state record loop allocates %v times, want 0", allocs)
	}
}

func TestTee(t *testing.T) {
	a, b := obs.NewRecorder(), obs.NewRecorder()
	if got := obs.Tee(nil, a); got != obs.Sink(a) {
		t.Errorf("Tee(nil, a) = %v, want a", got)
	}
	if got := obs.Tee(a, nil); got != obs.Sink(a) {
		t.Errorf("Tee(a, nil) = %v, want a", got)
	}
	if got := obs.Tee(nil, nil); got != nil {
		t.Errorf("Tee(nil, nil) = %v, want nil", got)
	}
	feed(obs.Tee(a, b))
	if !reflect.DeepEqual(a, b) {
		t.Error("tee receivers diverge")
	}
	if a.Len() != 24 {
		t.Errorf("tee receiver Len = %d, want 24", a.Len())
	}
}

func TestHist(t *testing.T) {
	var h obs.Hist
	for _, v := range []float64{0.5, 1, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count != 5 {
		t.Errorf("Count = %d", h.Count)
	}
	if h.Max != 100 {
		t.Errorf("Max = %g", h.Max)
	}
	if got, want := h.Mean(), (0.5+1+3+4+100)/5; got != want {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	// Buckets: 0.5 → [<1], 1 → [1..2), 3 → [2..4), 4 → [4..8), 100 → [64..128).
	for i, want := range map[int]int64{0: 1, 1: 1, 2: 1, 3: 1, 7: 1} {
		if h.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], want)
		}
	}
	s := h.String()
	for _, want := range []string{"n=5", "[<1]:1", "[64..128):1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
	h.Reset()
	if h.Count != 0 || h.Mean() != 0 {
		t.Error("Reset did not zero the histogram")
	}
	// Huge values clamp into the last bucket rather than indexing out.
	h.Observe(1e300)
	if h.Buckets[31] != 1 {
		t.Error("overflow value not clamped to the last bucket")
	}
}

func TestMetrics(t *testing.T) {
	m := obs.NewMetrics()
	feed(m)
	if m.Runs[obs.KindSchedule] != 1 || m.Runs[obs.KindSim] != 1 {
		t.Errorf("Runs = %v", m.Runs)
	}
	if m.Steps != 3 || m.EPWins != 1 || m.NonEPWins != 2 || m.Ties != 1 || m.Demotions != 1 {
		t.Errorf("decision counters: steps=%d ep=%d nonep=%d ties=%d dem=%d",
			m.Steps, m.EPWins, m.NonEPWins, m.Ties, m.Demotions)
	}
	if m.TasksRun != 3 {
		t.Errorf("TasksRun = %d", m.TasksRun)
	}
	if m.Makespan != 8.5 {
		t.Errorf("Makespan = %g", m.Makespan)
	}
	if m.Msgs != 2 || m.CommTime != 3.5 {
		t.Errorf("Msgs = %d, CommTime = %g", m.Msgs, m.CommTime)
	}
	if m.Crashes != 1 || m.Repairs != 1 || m.Retries != 2 || m.RetryDelay != 3.5 {
		t.Errorf("fault counters: crashes=%d repairs=%d retries=%d delay=%g",
			m.Crashes, m.Repairs, m.Retries, m.RetryDelay)
	}
	// All busy time landed on p0: 2 + 2 + 3.5 time units.
	if got := m.Busy[0]; got != 7.5 {
		t.Errorf("Busy[0] = %g", got)
	}
	if got, want := m.Idle(0), 8.5-7.5; got != want {
		t.Errorf("Idle(0) = %g, want %g", got, want)
	}
	if m.Idle(-1) != 0 || m.Idle(99) != 0 {
		t.Error("Idle out of range should be 0")
	}
	if got, want := m.Utilization(), 7.5/(8.5*2); got != want {
		t.Errorf("Utilization = %g, want %g", got, want)
	}
	s := m.String()
	for _, want := range []string{"decisions   3", "executed    3 tasks", "1 crashes"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}

	m.Reset()
	if m.Steps != 0 || m.Makespan != 0 || m.Crashes != 0 {
		t.Error("Reset did not zero the counters")
	}
	// A reset sink fed the same run reads what a fresh one reads: Reset
	// must not leave the last run's busy time under the next Begin.
	feed(m)
	fresh := obs.NewMetrics()
	feed(fresh)
	if !reflect.DeepEqual(m.Busy, fresh.Busy) || m.Utilization() != fresh.Utilization() {
		t.Errorf("after Reset: Busy %v, utilization %g; a fresh sink reads %v, %g",
			m.Busy, m.Utilization(), fresh.Busy, fresh.Utilization())
	}
	if allocs := testing.AllocsPerRun(20, func() {
		m.Reset()
		feed(m)
	}); allocs != 0 {
		t.Errorf("steady-state metrics loop allocates %v times, want 0", allocs)
	}
}

// TestNopSink just exercises the no-op methods for coverage and to ensure
// the type keeps satisfying Sink.
func TestNopSink(t *testing.T) {
	var s obs.Sink = obs.NopSink{}
	feed(s)
}
