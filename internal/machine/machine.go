// Package machine models the target distributed-memory system of the FLB
// paper: a set of P processors connected in a clique topology with
// contention-free inter-processor communication (paper §2).
//
// The CommModel interface generalizes the paper's cost model (the raw edge
// weight between distinct processors, zero within a processor) so that the
// examples can also explore a latency/bandwidth network without touching
// the schedulers.
//
// # Uniformly related processors
//
// The paper's machine is homogeneous. This package generalizes it to the
// uniformly related model (Q | prec | Cmax): every processor p carries a
// speed factor s(p) > 0 and executing task t on p takes w(t)/s(p) time.
// A nil Speeds slice — the zero value, and what NewSystem builds — is the
// homogeneous machine, and all-1.0 speeds are canonicalized to nil
// (CanonicalSpeeds) so the two spell the *same* system everywhere a
// System is hashed or compared. Communication costs are a property of the
// network, not the endpoints, and do not scale with speed.
package machine

import (
	"fmt"
	"math"
)

// Proc identifies a processor, in [0, P).
type Proc = int

// CommModel converts an edge's communication weight into a delay for a
// message from processor `from` to processor `to`.
//
// The schedulers rely on three rules for every weight w >= 0: Cost is >= 0
// and not NaN; it is 0 when from == to (intra-processor communication is
// free, paper §2); and it is the same for every pair of distinct
// processors (the paper's clique is homogeneous). FLB's last message
// arrival time (System.RemoteCost), its one-pass effective message
// arrival time on the enabling processor, and the online rescheduler's
// cold start onto a compacted survivor set all depend on the last rule.
//
// System.CommCost and System.RemoteCost answer a nil or Clique model
// inline, without calling Cost: a type switch matches exactly those two
// dynamic types, whose Cost is fixed by these rules (0 within a
// processor, w between two), so the answer is the same float bit for
// bit. Every other model, a type that embeds Clique included, is called
// through the interface. FLB, FCP, the execution engine and
// schedule.EST read every edge through these two functions.
type CommModel interface {
	// Cost returns the communication delay of a message with weight w sent
	// from processor from to processor to.
	Cost(w float64, from, to Proc) float64
	// Name identifies the model in reports.
	Name() string
}

// Clique is the paper's model: cost is the raw edge weight between distinct
// processors and zero within a processor.
type Clique struct{}

// Cost implements CommModel.
func (Clique) Cost(w float64, from, to Proc) float64 {
	if from == to {
		return 0
	}
	return w
}

// Name implements CommModel.
func (Clique) Name() string { return "clique" }

// LatencyBandwidth is an extension model: cost = Latency + w/Bandwidth
// between distinct processors. It exercises the same scheduler code paths
// with a more realistic network, and is used by the pipeline example.
type LatencyBandwidth struct {
	Latency   float64 // fixed per-message start-up cost; finite and >= 0
	Bandwidth float64 // weight units per time unit; must be > 0
}

// Cost implements CommModel.
func (m LatencyBandwidth) Cost(w float64, from, to Proc) float64 {
	if from == to {
		return 0
	}
	return m.Latency + w/m.Bandwidth
}

// Name implements CommModel.
func (m LatencyBandwidth) Name() string {
	return fmt.Sprintf("latency=%g,bandwidth=%g", m.Latency, m.Bandwidth)
}

// System describes the target machine.
type System struct {
	// P is the number of processors; must be >= 1.
	P int
	// Comm is the communication model; nil means Clique.
	Comm CommModel
	// Speeds holds the per-processor speed factors of a uniformly related
	// machine: executing a task with weight w on processor p takes
	// w/Speeds[p] time. nil means homogeneous (every speed 1). When
	// non-nil it must have exactly P entries, each finite and > 0.
	// Construct it with CanonicalSpeeds so that all-1.0 vectors collapse
	// to nil and homogeneous systems stay bit-for-bit comparable (memo
	// fingerprints included) however they were built.
	Speeds []float64
}

// NewSystem returns a P-processor homogeneous clique system.
func NewSystem(p int) System { return System{P: p, Comm: Clique{}} }

// CanonicalSpeeds returns the canonical form of a speed vector: nil when
// speeds is empty or every entry is exactly 1.0 (the homogeneous machine),
// otherwise a copy of speeds. The copy keeps callers free to reuse their
// slice without aliasing the System.
func CanonicalSpeeds(speeds []float64) []float64 {
	unit := true
	for _, s := range speeds {
		if s != 1.0 { // exact: only exactly-1.0 vectors collapse to the homogeneous form
			unit = false
			break
		}
	}
	if unit {
		return nil
	}
	out := make([]float64, len(speeds))
	copy(out, speeds)
	return out
}

// Validate reports configuration errors: P < 1, a speed vector of the
// wrong length or with an entry that is not finite and > 0, and a
// LatencyBandwidth model whose latency is not finite and >= 0 or whose
// bandwidth is not > 0.
func (s System) Validate() error {
	if s.P < 1 {
		return fmt.Errorf("machine: P = %d, want >= 1", s.P)
	}
	if m, ok := s.Comm.(LatencyBandwidth); ok {
		if math.IsNaN(m.Latency) || math.IsInf(m.Latency, 0) || m.Latency < 0 {
			return fmt.Errorf("machine: latency = %v, want finite and >= 0", m.Latency)
		}
		if !(m.Bandwidth > 0) {
			return fmt.Errorf("machine: bandwidth = %v, want > 0", m.Bandwidth)
		}
	}
	if s.Speeds != nil {
		if len(s.Speeds) != s.P {
			return fmt.Errorf("machine: %d speeds for P = %d processors", len(s.Speeds), s.P)
		}
		for p, sp := range s.Speeds {
			if math.IsNaN(sp) || math.IsInf(sp, 0) || sp <= 0 {
				return fmt.Errorf("machine: speed[%d] = %v, want finite and > 0", p, sp)
			}
		}
	}
	return nil
}

// Speed returns processor p's speed factor (1 on homogeneous systems).
func (s System) Speed(p Proc) float64 {
	if s.Speeds == nil {
		return 1
	}
	return s.Speeds[p]
}

// ExecTime returns the execution time of a task with computation weight w
// on processor p: w/speed(p). On homogeneous systems (and for speed
// exactly 1, since w/1.0 == w bit-exactly in IEEE 754) it is w itself, so
// the homogeneous timing path is unchanged by the related-machines
// generalization.
func (s System) ExecTime(w float64, p Proc) float64 {
	if s.Speeds == nil {
		return w
	}
	return w / s.Speeds[p]
}

// MaxSpeed returns the fastest processor's speed factor (1 on homogeneous
// systems). The sequential-time lower bound of a related machine is
// TotalComp/MaxSpeed — the whole graph on the fastest processor.
func (s System) MaxSpeed() float64 {
	if s.Speeds == nil {
		return 1
	}
	max := s.Speeds[0]
	for _, sp := range s.Speeds[1:] {
		if sp > max {
			max = sp
		}
	}
	return max
}

// UnitSpeeds reports whether every speed factor is exactly 1 — nil
// Speeds, or a vector CanonicalSpeeds would collapse to nil. Such a
// system is *the* homogeneous machine: schedules, timings and memo
// fingerprints must all coincide with the nil-Speeds form.
func (s System) UnitSpeeds() bool {
	for _, sp := range s.Speeds {
		if sp != 1.0 { // exact, see CanonicalSpeeds
			return false
		}
	}
	return true
}

// Heterogeneous reports whether the system has at least two distinct
// speed factors — i.e. whether speed can change a scheduling *decision*.
// A uniformly scaled machine (all speeds k) executes k times faster but
// ranks processors exactly as the homogeneous machine does, so schedulers
// keep the paper's decision path for it and only the timing (ExecTime)
// differs. This is what pins the homogeneous bit-identity contract: with
// Heterogeneous() false, every scheduler in the module takes the same
// branch structure as the seed homogeneous implementation.
func (s System) Heterogeneous() bool {
	if s.Speeds == nil {
		return false
	}
	first := s.Speeds[0]
	for _, sp := range s.Speeds[1:] {
		if sp != first { // exact: distinct-speed detection gates the decision path
			return true
		}
	}
	return false
}

// CommCost returns the delay of a message with weight w from processor
// from to processor to under the system's model. A nil or Clique model
// is answered inline, without an interface call: 0 within a processor,
// w between two (see CommModel).
func (s System) CommCost(w float64, from, to Proc) float64 {
	switch s.Comm.(type) {
	case nil, Clique:
		if from == to {
			return 0
		}
		return w
	}
	return s.Comm.Cost(w, from, to)
}

// RemoteCost returns the delay of a message with weight w between two
// *distinct* processors. The paper's machine model is homogeneous (§2), so
// the cost of a remote message does not depend on which two processors are
// involved; this is what the LMT computation needs. Under a nil or Clique
// model it is w itself.
func (s System) RemoteCost(w float64) float64 {
	switch s.Comm.(type) {
	case nil, Clique:
		return w
	}
	return s.Comm.Cost(w, 0, -1)
}
