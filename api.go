package flb

import (
	"io"
	"math/rand"
	"time"

	"flb/internal/algo"
	"flb/internal/algo/optimal"
	"flb/internal/algo/refine"
	"flb/internal/algo/registry"
	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/schedule"
	"flb/internal/sim"
	"flb/internal/workload"
)

// Core types, re-exported so users never import internal packages.
type (
	// Graph is a weighted task DAG; see NewGraph.
	Graph = graph.Graph
	// Task is a node of a Graph.
	Task = graph.Task
	// Edge is a dependence with a communication cost.
	Edge = graph.Edge
	// Schedule is a task-to-processor assignment with start/finish times.
	Schedule = schedule.Schedule
	// Metrics summarizes schedule quality (makespan, speedup, NSL inputs).
	Metrics = schedule.Metrics
	// System describes the target machine (processor count + comm model).
	System = machine.System
	// CommModel converts edge weights into message delays.
	CommModel = machine.CommModel
	// Clique is the paper's machine model: full cost between distinct
	// processors, zero within one.
	Clique = machine.Clique
	// LatencyBandwidth is the extension model cost = L + w/B.
	LatencyBandwidth = machine.LatencyBandwidth
	// Algorithm is a pluggable scheduler; see NewAlgorithm.
	Algorithm = algo.Algorithm
	// Step is one iteration of an FLB execution trace (the paper's Table 1).
	Step = core.Step
	// Sampler draws random task/edge weights; see workload options.
	Sampler = workload.Sampler
)

// FLB is the paper's scheduler, usable directly as an Algorithm.
type FLB = core.FLB

// Scheduler is a reusable FLB scheduling arena for high-throughput
// callers: it produces exactly the same schedules as FLB but reuses all
// working memory (heaps, trackers, scratch arrays and the output
// schedule) across calls, reaching zero steady-state allocations on
// frozen graphs. The returned schedule is valid only until the next
// Schedule call; Clone it to keep it. Not safe for concurrent use — use
// one Scheduler per goroutine.
type Scheduler = core.Scheduler

// NewScheduler returns a reusable FLB arena (the paper's configuration).
func NewScheduler() *Scheduler { return core.NewScheduler(core.FLB{}) }

// NewGraph returns an empty task graph with the given name.
func NewGraph(name string) *Graph { return graph.New(name) }

// ReadGraph parses a graph in the module's text format (see WriteText on
// Graph for the syntax).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadText(r) }

// ParseGraph parses a graph from a string in the text format.
func ParseGraph(s string) (*Graph, error) { return graph.ParseText(s) }

// ReadGraphSTG parses a graph in Standard Task Graph Set format (classic
// or weighted; see internal/graph's STG documentation).
func ReadGraphSTG(r io.Reader) (*Graph, error) { return graph.ReadSTG(r) }

// SystemOption configures a machine beyond its processor count; pass any
// number to NewSystem.
type SystemOption func(*System)

// WithComm selects the system's communication model. The default is
// Clique, the paper's contention-free model.
func WithComm(m CommModel) SystemOption {
	return func(s *System) { s.Comm = m }
}

// WithSpeeds makes the system a uniformly related machine: speeds[p] is
// processor p's speed factor, and a task with weight w executes on p in
// w/speeds[p] time (communication costs do not scale). The vector must
// have one finite, positive entry per processor (validated when the
// system is used). The slice is canonicalized and copied: an all-1.0
// vector collapses to the homogeneous machine, and the caller's slice is
// never aliased.
func WithSpeeds(speeds []float64) SystemOption {
	return func(s *System) { s.Speeds = machine.CanonicalSpeeds(speeds) }
}

// NewSystem returns a P-processor clique system — homogeneous by
// default, the paper's machine model — configured by the options:
//
//	flb.NewSystem(4)                                          // paper's machine
//	flb.NewSystem(4, flb.WithSpeeds([]float64{2, 2, 1, 1}))   // related machine
//	flb.NewSystem(4, flb.WithComm(flb.LatencyBandwidth{Latency: 1, Bandwidth: 4}))
func NewSystem(p int, opts ...SystemOption) System {
	sys := machine.NewSystem(p)
	for _, fn := range opts {
		if fn != nil {
			fn(&sys)
		}
	}
	return sys
}

// FormatTrace renders an execution trace in the layout of the paper's
// Table 1. names maps task IDs to labels; nil means t0, t1, ...
func FormatTrace(steps []Step, names func(int) string) string {
	return core.FormatTrace(steps, names)
}

// Algorithms returns the registered algorithm names: the paper's measured
// set (mcp, etf, dsc-llb, fcp, flb) followed by the extension baselines.
func Algorithms() []string { return registry.Names() }

// NewAlgorithm constructs a scheduler by registry name (case-insensitive).
// seed drives randomized tie-breaking where present (MCP).
func NewAlgorithm(name string, seed int64) (Algorithm, error) {
	return registry.New(name, seed)
}

// SimResult is the outcome of a simulated self-timed execution of a
// schedule: the embedded result of Execute, and SimulateContended's.
type SimResult = sim.Result

// jitterStream builds the perturbation for one independent jitter
// stream. A zero epsilon returns nil (exact costs): no RNG is created
// and no draws happen, so the other stream's sequence is unaffected.
func jitterStream(seed int64, stream uint64, eps float64) sim.Perturb {
	if eps == 0 {
		return nil
	}
	return sim.UniformJitter(rand.New(rand.NewSource(sim.DeriveSeed(seed, stream))), eps)
}

// Fault-tolerance surface, re-exported from internal/fault: fail-stop
// crash plans, the retry policy for lossy messages, and the repair
// strategies. Execute takes a plan through WithFaults.
type (
	// FaultPlan describes the faults injected into one execution; the
	// zero value is fault-free.
	FaultPlan = fault.Plan
	// Crash is a fail-stop processor failure at a point in time.
	Crash = fault.Crash
	// RetryPolicy bounds lost-message retransmission delays.
	RetryPolicy = fault.RetryPolicy
	// RepairMode selects how a crash's stranded tasks are replanned.
	RepairMode = fault.Mode
)

// Repair strategies for FaultPlan.Repair.
const (
	// RepairReschedule remaps the whole unexecuted suffix with the FLB
	// criterion (slower repair, better post-fault makespan).
	RepairReschedule = fault.ModeReschedule
	// RepairMigrate moves only stranded tasks to the least-loaded
	// survivors (cheap repair, coarser schedule).
	RepairMigrate = fault.ModeMigrate
)

// Rescheduler is the reusable online repair arena behind
// RepairReschedule, exported for callers embedding the runtime.
type Rescheduler = core.Rescheduler

// NewRescheduler returns an empty online repair arena.
func NewRescheduler() *Rescheduler { return core.NewRescheduler() }

// fixedChooser returns the chooser applying one repair strategy to every
// crash, with the arenas shared across repairs. A nil re builds a private
// reschedule arena; batch callers pass their worker's.
func fixedChooser(m RepairMode, re *core.Rescheduler) sim.RepairChooser {
	if m == fault.ModeMigrate {
		mr := &fault.MigrateRepairer{}
		return func(fault.Crash, int) (fault.Repairer, error) { return mr, nil }
	}
	if re == nil {
		re = core.NewRescheduler()
	}
	return func(fault.Crash, int) (fault.Repairer, error) { return re, nil }
}

// timedRepairer measures each repair's wall-clock cost so the WithContext
// chooser can judge whether the deadline leaves room for another one.
type timedRepairer struct {
	r    fault.Repairer
	cost *time.Duration
}

//flb:wallclock measures real repair cost for the deadline budget of WithContext
func (t timedRepairer) Repair(req *fault.Request) error {
	start := time.Now()
	err := t.r.Repair(req)
	*t.cost = time.Since(start)
	return err
}

// Network selects a contention model for SimulateContended.
type Network = sim.Network

// Contention models: every remote message on one bus, per ordered
// processor pair, or per sender port.
const (
	SharedBus = sim.SharedBus
	PerLink   = sim.PerLink
	PerPort   = sim.PerPort
)

// SimulateContended executes schedule s self-timed with exact costs but
// remote messages serialized FCFS on the chosen network resource — the
// contention the paper's machine model abstracts away (§2). The result's
// makespan is never below the schedule's planned one.
func SimulateContended(s *Schedule, net Network) (*SimResult, error) {
	return sim.RunContended(s, net, nil)
}

// Refine hill-climbs on a complete schedule's processor assignment
// (internal/algo/refine) and returns an equal-or-better schedule.
// maxMoves bounds the accepted moves; 0 picks a default.
func Refine(s *Schedule, maxMoves int) (*Schedule, error) {
	return refine.Refine(s, maxMoves)
}

// OptimalResult is the outcome of an exact branch-and-bound search; see
// Optimal.
type OptimalResult = optimal.Result

// Optimal computes a provably minimum-makespan schedule of g on p
// processors by branch and bound. Exponential — intended for tiny graphs
// (V up to ~12); maxNodes bounds the search (0 picks a default), and the
// result reports whether optimality was proven within it.
func Optimal(g *Graph, p int, maxNodes int) (*OptimalResult, error) {
	return optimal.Solve(g, machine.NewSystem(p), maxNodes)
}

// Workload generators of the paper's evaluation (§6), re-exported.
var (
	// PaperExample returns the Fig. 1 example graph.
	PaperExample = workload.PaperExample
	// LU returns the LU-decomposition task graph for an n x n matrix.
	LU = workload.LU
	// Laplace returns the n x n Laplace solver wavefront graph.
	Laplace = workload.Laplace
	// Stencil returns the width x steps stencil graph.
	Stencil = workload.Stencil
	// FFT returns the n-point FFT butterfly graph (n a power of two).
	FFT = workload.FFT
	// WorkloadInstance generates a randomized experiment instance:
	// family name, approximate task count, CCR, sampler (nil = uniform on
	// [0, 2µ]) and seed.
	WorkloadInstance = workload.Instance
)
