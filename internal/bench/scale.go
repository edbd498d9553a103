package bench

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"flb/internal/core"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/workload"
)

// The scale sweep (ISSUE 10) is the memory acceptance experiment: build,
// freeze and FLB-schedule graphs up to 10^6–10^7 tasks and hold the
// measured footprint to a committed budget. The budget is expressed per
// structural unit (V+E) so one constant covers families of different edge
// density: a frozen graph costs ~64 bytes per task (Task struct, topo and
// bottom-level memos, CSR offsets) plus ~32 bytes per edge (Edge struct,
// two uint32 CSR adjacency entries), i.e. ~43 B/(V+E) at density 2.
// The committed sweep measures 38.0–44.2 B/(V+E) across families at
// V >= 10^5; the regressions this gate exists for — eager per-task name
// strings (+8 B/(V+E) on LU) or 64-bit CSR indices (+8 B/(V+E) on every
// family) — push at least one row past 48, so the budget sits at 47.
// Peak RSS is process-wide and only meaningful when the sweep runs alone
// (flbbench -exp scale); the CI guard budgets the quick sweep.
const (
	// ScaleBytesPerVEBudget caps the measured live-heap bytes per (V+E)
	// unit of a frozen graph with V >= 10^5 (smaller graphs carry
	// proportionally more allocator rounding).
	ScaleBytesPerVEBudget = 47.0
	// ScaleQuickPeakRSSBudgetMB caps VmHWM for `flbbench -exp scale -quick`
	// run in a fresh process (the make scale / CI configuration).
	ScaleQuickPeakRSSBudgetMB = 512.0
	// ScalePeakRSSBudgetMB caps VmHWM for the full (million-task) sweep in
	// a fresh process.
	ScalePeakRSSBudgetMB = 2048.0
)

// ScaleRow is one (family, size) measurement of the scale sweep.
type ScaleRow struct {
	Family       string
	V, E         int
	Adj          string  // CSR representation: always "u32"
	BuildMS      float64 // generator streaming into NewWithCapacity
	FreezeMS     float64 // CSR + validation + memoized orders and levels
	ScheduleMS   float64 // one FLB run on a pre-grown Scheduler arena
	GraphBytes   uint64  // live-heap delta attributable to the frozen graph
	BytesPerTask float64
	BytesPerVE   float64 // the budgeted metric: GraphBytes / (V+E)
	Makespan     float64
}

// ScaleResult is the scale sweep: per-row footprint and phase timings,
// plus the process-wide peak resident set after the sweep.
type ScaleResult struct {
	P         int
	Rows      []ScaleRow
	PeakRSSMB float64 // VmHWM; 0 when procfs is unavailable
}

// scaleFamilies are the swept graph shapes: LU (the paper's hardest
// dense family, E≈2V), a wide stencil (1000 cells, E≈3V, the regular
// high-parallelism regime) and a layered random DAG (1000-wide layers,
// expected in-degree 2, the irregular regime).
var scaleFamilies = []struct {
	name string
	gen  func(v int) *graph.Graph
}{
	{"lu", func(v int) *graph.Graph { return workload.LU(workload.LUSizeFor(v)) }},
	{"stencil-w1000", func(v int) *graph.Graph { return workload.Stencil(1000, (v+999)/1000) }},
	{"layered-w1000", func(v int) *graph.Graph {
		return workload.LayeredRandom(rand.New(rand.NewSource(1)), (v+999)/1000, 1000, 2.0/1000)
	}},
}

// liveBytes returns the current live heap after a full collection; the
// difference across a build attributes its retained allocations.
func liveBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Scale measures the million-task path: for each target size and family
// it times the streaming build, the freeze (CSR + memos) and one FLB run
// on a pre-grown arena, and attributes the frozen graph's live-heap
// footprint. Graphs are released between rows, so peak RSS reflects the
// largest single instance plus the scheduler arena, not the sweep's sum.
//
//flb:wallclock measurement shell: times build/freeze/Schedule on the host clock
func Scale(sizes []int, p int) (*ScaleResult, error) {
	if len(sizes) == 0 {
		sizes = []int{100000, 1000000}
	}
	if p == 0 {
		p = 32
	}
	res := &ScaleResult{P: p}
	sys := machine.NewSystem(p)
	sc := core.NewScheduler(core.FLB{})
	for _, v := range sizes {
		for _, fam := range scaleFamilies {
			before := liveBytes()
			start := time.Now()
			g := fam.gen(v)
			buildMS := float64(time.Since(start).Nanoseconds()) / 1e6
			start = time.Now()
			g.Freeze()
			freezeMS := float64(time.Since(start).Nanoseconds()) / 1e6
			bytes := liveBytes() - before

			sc.Grow(g.NumTasks(), p)
			start = time.Now()
			s, err := sc.Schedule(g, sys)
			if err != nil {
				return nil, fmt.Errorf("bench scale: %s V=%d: %w", fam.name, v, err)
			}
			schedMS := float64(time.Since(start).Nanoseconds()) / 1e6
			vv, ee := g.NumTasks(), g.NumEdges()
			res.Rows = append(res.Rows, ScaleRow{
				Family:       fam.name,
				V:            vv,
				E:            ee,
				Adj:          "u32",
				BuildMS:      buildMS,
				FreezeMS:     freezeMS,
				ScheduleMS:   schedMS,
				GraphBytes:   bytes,
				BytesPerTask: float64(bytes) / float64(vv),
				BytesPerVE:   float64(bytes) / float64(vv+ee),
				Makespan:     s.Makespan(),
			})
		}
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// Check enforces the committed budgets: every row's bytes per (V+E) unit
// must stay under ScaleBytesPerVEBudget, and — when rssBudgetMB > 0 and
// the platform reports it — peak RSS must stay under rssBudgetMB. Pass a
// zero rssBudgetMB when the process ran anything besides the sweep.
func (r *ScaleResult) Check(rssBudgetMB float64) error {
	for _, row := range r.Rows {
		if row.BytesPerVE > ScaleBytesPerVEBudget {
			return fmt.Errorf("bench scale: %s V=%d spends %.1f B/(V+E), budget %.1f",
				row.Family, row.V, row.BytesPerVE, ScaleBytesPerVEBudget)
		}
	}
	if rssBudgetMB > 0 && r.PeakRSSMB > rssBudgetMB {
		return fmt.Errorf("bench scale: peak RSS %.0f MB over the %.0f MB budget",
			r.PeakRSSMB, rssBudgetMB)
	}
	return nil
}

// Format renders the scale table.
func (r *ScaleResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale — million-task footprint and phase cost, P=%d (budget %.0f B/(V+E))\n", r.P, ScaleBytesPerVEBudget)
	header := []string{"family", "V", "E", "adj", "build[ms]", "freeze[ms]", "sched[ms]", "graph[MB]", "B/task", "B/(V+E)"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Family,
			strconv.Itoa(row.V),
			strconv.Itoa(row.E),
			row.Adj,
			f1(row.BuildMS),
			f1(row.FreezeMS),
			f1(row.ScheduleMS),
			f1(float64(row.GraphBytes) / (1024 * 1024)),
			f1(row.BytesPerTask),
			f1(row.BytesPerVE),
		})
	}
	b.WriteString(table(header, rows))
	if r.PeakRSSMB > 0 {
		fmt.Fprintf(&b, "peak RSS: %.0f MB\n", r.PeakRSSMB)
	}
	return b.String()
}

// CSV renders the scale table machine-readably.
func (r *ScaleResult) CSV() string {
	rows := [][]string{{"family", "v", "e", "adj", "build_ms", "freeze_ms", "sched_ms", "graph_bytes", "bytes_per_task", "bytes_per_ve", "makespan"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Family,
			strconv.Itoa(row.V),
			strconv.Itoa(row.E),
			row.Adj,
			f3(row.BuildMS),
			f3(row.FreezeMS),
			f3(row.ScheduleMS),
			strconv.FormatUint(row.GraphBytes, 10),
			f1(row.BytesPerTask),
			f1(row.BytesPerVE),
			f3(row.Makespan),
		})
	}
	return writeCSV(rows)
}

// peakRSSMB reads the process's peak resident set (VmHWM) from the Linux
// procfs, in megabytes; it returns 0 where that is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
