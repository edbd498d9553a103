package schedule

import "math"

// Metrics summarizes the quality of a complete schedule with the quantities
// the paper's evaluation reports.
type Metrics struct {
	Algorithm string
	Procs     int
	Makespan  float64
	// SeqTime is the sequential execution time — the whole graph on the
	// best single processor: sum of computation costs divided by the
	// fastest speed factor (plain sum on homogeneous machines). It is the
	// numerator of speedup.
	SeqTime float64
	// Speedup = SeqTime / Makespan (paper Fig. 3).
	Speedup float64
	// Efficiency = Speedup / P.
	Efficiency float64
	// SLR is the schedule length ratio Makespan / CriticalPath, the
	// paper-style normalized length. The critical path counts every
	// message, and a schedule that co-locates a chain pays none of them,
	// so the denominator is not a lower bound on the makespan and SLR can
	// fall below 1: FLB puts a 3-task chain with comm 10 on one processor
	// and reports SLR 0.130.
	SLR float64
	// Idle is the total processor idle time before the makespan.
	Idle float64
}

// ComputeMetrics derives Metrics from a complete schedule.
func (s *Schedule) ComputeMetrics() Metrics {
	mk := s.Makespan()
	seq := s.g.TotalComp() / s.sys.MaxSpeed()
	m := Metrics{
		Algorithm: s.Algorithm,
		Procs:     s.sys.P,
		Makespan:  mk,
		SeqTime:   seq,
	}
	if mk > 0 {
		m.Speedup = seq / mk
		m.Efficiency = m.Speedup / float64(s.sys.P)
	}
	if cp := s.g.CriticalPath(); cp > 0 {
		m.SLR = mk / cp
	}
	m.Idle = mk*float64(s.sys.P) - seq
	return m
}

// NSL returns the normalized schedule length of makespan `got` relative to
// the reference algorithm's makespan `ref` (the paper's Fig. 4 normalizes
// against MCP). NSL < 1 means better than the reference.
func NSL(got, ref float64) float64 {
	if ref == 0 {
		if got == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return got / ref
}
