package obs

import (
	"fmt"
	"math"
	"strings"
)

// histBuckets is the fixed bucket count of Hist: powers of two from 1 up,
// plus an underflow bucket for values < 1.
const histBuckets = 32

// Hist is a fixed-size power-of-two histogram: bucket i counts values v
// with 2^(i-1) <= v < 2^i (bucket 0 counts v < 1). It allocates nothing
// and observes in O(1), so sinks can histogram per-event values without
// violating the overhead discipline.
type Hist struct {
	Count   int64
	Sum     float64
	Max     float64
	Buckets [histBuckets]int64
}

// Observe adds one value. The bucket of v >= 1 is 1 + its binary
// exponent, read from the float's bits: exact at every power of two and
// its neighbours, where math.Log2 can round up, and defined for +Inf,
// which lands in the last bucket with everything else past its bound.
func (h *Hist) Observe(v float64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	i := 0
	if v >= 1 {
		i = min(int(math.Float64bits(v)>>52&0x7ff)-1022, histBuckets-1)
	}
	h.Buckets[i]++
}

// Mean returns the average observed value (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Reset zeroes the histogram.
func (h *Hist) Reset() { *h = Hist{} }

// String renders count/mean/max plus the non-empty buckets.
func (h *Hist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.3g max=%.3g", h.Count, h.Mean(), h.Max)
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if i == 0 {
			fmt.Fprintf(&b, " [<1]:%d", c)
		} else {
			fmt.Fprintf(&b, " [%g..%g):%d", math.Exp2(float64(i-1)), math.Exp2(float64(i)), c)
		}
	}
	return b.String()
}

// Metrics is the aggregating sink: counters and histograms answering the
// questions the decentralized-list-scheduling literature asks empirically
// — how often each selection rule wins, how deep the ready lists run, how
// load spreads over processors, what faults cost. It allocates only on
// the first Begin (per-processor arrays) and is reusable via Reset.
//
// Metrics is intentionally single-goroutine (plain counters, no atomics
// or locks, per the package's sink contract). To aggregate across a
// concurrent batch, give each job its own sink and merge afterwards — or
// attach one Metrics to the batch API's observer option, which replays
// all jobs into it sequentially (package doc, "batch sink-sharing").
type Metrics struct {
	// Runs counts Begin events per kind index (see Kind).
	Runs [KindSimContended + 1]int

	// Scheduler decision counters.
	Steps     int  // scheduling decisions observed
	EPWins    int  // decisions won by the EP-type candidate
	NonEPWins int  // decisions won by the non-EP-type candidate
	Ties      int  // decisions where both candidates tied on start time
	Demotions int  // EP → non-EP migrations (UpdateTaskLists)
	ReadySet  Hist // ready-list size (non-EP heap) per decision

	// Execution counters.
	TasksRun int
	Busy     []float64 // per processor: time spent computing
	Makespan float64   // largest observed End makespan
	Msgs     int       // inter-processor messages
	CommTime float64   // total time messages spent in flight

	// Fault counters.
	Crashes     int
	Repairs     int
	Retries     int
	RetryDelay  float64
	RepairSize  Hist // pending tasks per repair epoch
	RepairNanos Hist // wall-clock repair cost

	// Cache is the latest schedule-cache snapshot observed. CacheStats
	// events carry cumulative counters, so the sink keeps the last one
	// rather than summing.
	Cache CacheStats
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics { return &Metrics{} }

// Reset zeroes every counter, keeping the per-processor arrays' storage.
// Busy is zeroed too: the next Begin re-slices it over that storage.
func (m *Metrics) Reset() {
	clear(m.Busy)
	busy := m.Busy[:0]
	*m = Metrics{Busy: busy}
}

// Idle returns processor p's idle time against the observed makespan.
func (m *Metrics) Idle(p int) float64 {
	if p < 0 || p >= len(m.Busy) {
		return 0
	}
	return m.Makespan - m.Busy[p]
}

// Utilization returns the mean fraction of the makespan the processors
// spent computing (0 when nothing ran).
func (m *Metrics) Utilization() float64 {
	if m.Makespan == 0 || len(m.Busy) == 0 {
		return 0
	}
	var sum float64
	for _, b := range m.Busy {
		sum += b
	}
	return sum / (m.Makespan * float64(len(m.Busy)))
}

func (m *Metrics) Begin(e Begin) {
	if int(e.Kind) < len(m.Runs) {
		m.Runs[e.Kind]++
	}
	if len(m.Busy) < e.Procs {
		if cap(m.Busy) >= e.Procs {
			m.Busy = m.Busy[:e.Procs]
		} else {
			grown := make([]float64, e.Procs)
			copy(grown, m.Busy)
			m.Busy = grown
		}
	}
}

func (m *Metrics) SchedStep(e SchedStep) {
	m.Steps++
	if e.ChoseEP {
		m.EPWins++
	} else {
		m.NonEPWins++
	}
	if e.Tie {
		m.Ties++
	}
	m.ReadySet.Observe(float64(e.NonEPLen))
}

func (m *Metrics) TaskDemoted(TaskDemoted) { m.Demotions++ }

func (m *Metrics) TaskFinish(e TaskEvent) {
	m.TasksRun++
	if e.Proc >= 0 && e.Proc < len(m.Busy) {
		m.Busy[e.Proc] += e.Finish - e.Start
	}
}

func (m *Metrics) MessageArrive(e Message) {
	m.Msgs++
	m.CommTime += e.Arrive - e.Send
}

func (m *Metrics) MessageRetry(e Message) {
	m.Retries += e.Retries
	m.RetryDelay += e.RetryDelay
}

func (m *Metrics) Crash(CrashEvent) { m.Crashes++ }

func (m *Metrics) Repair(e RepairEvent) {
	m.Repairs++
	m.RepairSize.Observe(float64(e.Pending))
	m.RepairNanos.Observe(float64(e.WallNanos))
}

func (m *Metrics) CacheStats(e CacheStats) { m.Cache = e }

func (m *Metrics) End(e End) {
	if e.Makespan > m.Makespan {
		m.Makespan = e.Makespan
	}
}

func (m *Metrics) TaskReady(TaskReady) {}
func (m *Metrics) TaskStart(TaskEvent) {}
func (m *Metrics) MessageSend(Message) {}

// String renders a compact multi-line summary.
func (m *Metrics) String() string {
	var b strings.Builder
	if m.Steps > 0 {
		fmt.Fprintf(&b, "decisions   %d (EP %d, non-EP %d, ties %d, demotions %d)\n",
			m.Steps, m.EPWins, m.NonEPWins, m.Ties, m.Demotions)
		fmt.Fprintf(&b, "ready set   %s\n", m.ReadySet.String())
	}
	if m.TasksRun > 0 {
		fmt.Fprintf(&b, "executed    %d tasks, makespan %g, utilization %.3f\n",
			m.TasksRun, m.Makespan, m.Utilization())
		fmt.Fprintf(&b, "messages    %d (%.3g time units in flight)\n", m.Msgs, m.CommTime)
	}
	if m.Crashes > 0 || m.Repairs > 0 {
		fmt.Fprintf(&b, "faults      %d crashes, %d repairs (pending %s), %d retries (+%.3g delay)\n",
			m.Crashes, m.Repairs, m.RepairSize.String(), m.Retries, m.RetryDelay)
	}
	if m.Cache.Gets > 0 || m.Cache.Puts > 0 {
		fmt.Fprintf(&b, "cache       %d gets (%d hits, %d near, %d misses), %d puts, %d evictions, %d/%d entries, %d bytes\n",
			m.Cache.Gets, m.Cache.Hits, m.Cache.NearHits,
			m.Cache.Gets-m.Cache.Hits-m.Cache.NearHits,
			m.Cache.Puts, m.Cache.Evictions, m.Cache.Len, m.Cache.Cap, m.Cache.Bytes)
	}
	return b.String()
}
