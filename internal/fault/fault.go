// Package fault defines the fault model of the execution runtime:
// fail-stop processor crashes at configurable times, lossy messages
// governed by a timeout + bounded-retry-with-backoff policy, and the
// repair contract through which an online rescheduler remaps the
// unexecuted suffix of a plan onto the surviving processors.
//
// The package deliberately holds only the model and the contract. The
// execution engine lives in internal/sim (Run) and the
// FLB-criterion repairer in internal/core (Rescheduler), so that both
// can depend on this package without depending on each other
// (internal/sim's tests exercise the core schedulers, so internal/core
// must never import internal/sim).
//
//flb:deterministic repair output becomes the executed schedule; iteration order must not vary run to run
package fault

import (
	"fmt"
	"math"

	"flb/internal/graph"
	"flb/internal/machine"
)

// Crash is a fail-stop failure: processor Proc stops at time Time. Tasks
// it completed strictly before Time survive (their outputs are
// checkpointed on finish, see Plan.NoCheckpoint); the task it is running
// at Time — and, without checkpointing, any output a pending task still
// needs — is lost and must be recomputed elsewhere.
type Crash struct {
	Proc machine.Proc
	Time float64
}

// RetryPolicy governs lossy messages: a fetch whose message is lost is
// retried after a timeout, each retry waiting Backoff times longer, for
// at most MaxRetries retransmissions. After the last retransmission
// fails, the consumer falls back to the checkpoint store, which always
// succeeds — the policy bounds delay, so a lossy run still terminates.
type RetryPolicy struct {
	// Timeout is the wait before the first retransmission. Must be > 0
	// when message loss is enabled.
	Timeout float64
	// MaxRetries bounds the number of retransmissions after the first
	// attempt. 0 means the first failure goes straight to the checkpoint
	// backstop (after one Timeout).
	MaxRetries int
	// Backoff multiplies the timeout on every retransmission. 0 means
	// the default of 2; values below 1 are invalid.
	Backoff float64
}

// Normalized returns rp with defaults applied.
func (rp RetryPolicy) Normalized() RetryPolicy {
	if rp.Backoff == 0 {
		rp.Backoff = 2
	}
	return rp
}

// Mode selects the repair strategy applied when a crash strands part of
// a running plan.
type Mode int

const (
	// ModeReschedule remaps the whole unexecuted suffix with the FLB
	// selection criterion (core.Rescheduler) — slower repair, better
	// post-fault makespan.
	ModeReschedule Mode = iota
	// ModeMigrate keeps surviving placements and their order untouched
	// and moves only the stranded tasks to the least-loaded survivors —
	// cheap repair, coarser schedule.
	ModeMigrate
)

// String returns the mode's registry-style name.
func (m Mode) String() string {
	switch m {
	case ModeReschedule:
		return "reschedule"
	case ModeMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Plan describes the faults injected into one simulated execution.
// The zero value is the fault-free plan: running it must reproduce the
// fault-free simulation bit for bit.
type Plan struct {
	// Crashes lists fail-stop failures. Order is irrelevant (the runtime
	// applies them in time order); crashing an already-dead processor is
	// a no-op.
	Crashes []Crash
	// MsgLoss is the independent per-fetch probability, in [0, 1), that
	// an inter-processor message is lost and enters the retry protocol.
	MsgLoss float64
	// Retry governs timeouts for lost messages; required when MsgLoss > 0.
	Retry RetryPolicy
	// Repair selects the repair strategy (ignored by flb.Execute under
	// WithContext, whose deadline picks the strategy per crash).
	Repair Mode
	// NoCheckpoint disables checkpoint-on-finish: a crash then also
	// loses every finished output still resident only on the dead
	// processor, and the tasks that produced them are recomputed.
	NoCheckpoint bool
}

// Validate reports whether the plan is well-formed for a system with the
// given processor count.
func (pl Plan) Validate(procs int) error {
	for i, c := range pl.Crashes {
		if c.Proc < 0 || c.Proc >= procs {
			return fmt.Errorf("fault: crash %d targets processor %d, want [0,%d)", i, c.Proc, procs)
		}
		if c.Time < 0 || math.IsNaN(c.Time) || math.IsInf(c.Time, 0) {
			return fmt.Errorf("fault: crash %d at time %v, want finite >= 0", i, c.Time)
		}
	}
	if !(pl.MsgLoss >= 0 && pl.MsgLoss < 1) {
		return fmt.Errorf("fault: MsgLoss = %v, want [0,1)", pl.MsgLoss)
	}
	if pl.MsgLoss > 0 {
		r := pl.Retry.Normalized()
		if !(r.Timeout > 0) || math.IsInf(r.Timeout, 0) {
			return fmt.Errorf("fault: Retry.Timeout = %v, want finite > 0 when MsgLoss > 0", pl.Retry.Timeout)
		}
		if r.MaxRetries < 0 {
			return fmt.Errorf("fault: Retry.MaxRetries = %d, want >= 0", r.MaxRetries)
		}
		if !(r.Backoff >= 1) {
			return fmt.Errorf("fault: Retry.Backoff = %v, want >= 1 (or 0 for the default)", pl.Retry.Backoff)
		}
	}
	if pl.Repair != ModeReschedule && pl.Repair != ModeMigrate {
		return fmt.Errorf("fault: unknown repair mode %d", int(pl.Repair))
	}
	return nil
}

// Request is one repair problem, handed to a Repairer when a crash
// strands part of a running plan. The repairer must call Assign exactly
// once for every task in Todo; everything else is read-only input.
//
// All slices are owned by the runtime and valid only for the duration of
// the Repair call.
type Request struct {
	G   *graph.Graph
	Sys machine.System
	// Now is the crash time: no reassigned task may start before it.
	Now float64
	// Alive[p] reports whether processor p has survived so far.
	Alive []bool
	// Executed[t] reports that t's execution is already determined: it
	// either finished before the crash or is in flight on a survivor.
	// For executed tasks Finish[t] is the actual completion time and
	// Proc[t] the processor holding the output; for pending tasks
	// Proc[t] is the previously planned processor (possibly dead).
	Executed []bool
	Finish   []float64
	Proc     []machine.Proc
	// Floor[p] is the earliest time survivor p can start new work:
	// max(Now, finish of its in-flight task). Meaningful only for alive
	// processors.
	Floor []float64
	// Todo lists the unexecuted tasks in current-plan execution order —
	// a linear extension of the precedence order restricted to pending
	// tasks.
	Todo []int

	// NewProc is the repairer's output, Unassigned (-1) until Assign;
	// Seq records assignment order and becomes the new execution order,
	// so it must itself be precedence-valid per processor.
	NewProc []machine.Proc
	Seq     []int
}

// Unassigned marks a task the repairer has not assigned yet.
const Unassigned machine.Proc = -1

// Assign maps pending task t to surviving processor p and appends it to
// the new execution order. It panics on double assignment or a dead or
// out-of-range processor — repairer bugs, not user errors.
func (r *Request) Assign(t int, p machine.Proc) {
	if r.NewProc[t] != Unassigned {
		panic(fmt.Sprintf("fault: task %d assigned twice", t))
	}
	if p < 0 || p >= len(r.Alive) || !r.Alive[p] {
		panic(fmt.Sprintf("fault: task %d assigned to dead or invalid processor %d", t, p))
	}
	r.NewProc[t] = p
	r.Seq = append(r.Seq, t)
}

// ResetOut prepares the output fields for a fresh Repair call on a graph
// with n tasks, reusing backing arrays.
func (r *Request) ResetOut(n int) {
	if cap(r.NewProc) >= n {
		r.NewProc = r.NewProc[:n]
	} else {
		r.NewProc = make([]machine.Proc, n)
	}
	for i := range r.NewProc {
		r.NewProc[i] = Unassigned
	}
	r.Seq = r.Seq[:0]
}

// AliveCount returns the number of surviving processors.
func (r *Request) AliveCount() int {
	n := 0
	for _, ok := range r.Alive {
		if ok {
			n++
		}
	}
	return n
}

// Repairer computes a new assignment for the unexecuted suffix of a
// faulted plan. Implementations must be deterministic: the same Request
// must always produce the same assignment.
type Repairer interface {
	Repair(*Request) error
}
