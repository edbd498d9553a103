package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flb/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Start and End are nanoseconds since the
// tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same methods at the cost of a
// nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfMS returns, per span name, each span's self time in milliseconds:
// its duration minus the part of its interval its child spans cover.
func (t *tracer) selfMS() map[string]sample {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]sample)
	for i, s := range t.spans {
		covered := coveredNS(t.spans, children[i])
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// coveredNS is the length of the union of the given spans' intervals.
func coveredNS(spans []span, ids []int) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ids))
	for k, id := range ids {
		iv[k] = [2]int64{spans[id].Start, spans[id].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// allocSample reads the cumulative heap allocation counter. It is shared,
// so heapAllocs is called from one goroutine at a time.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the bytes allocated on the heap since the process
// started. Unlike runtime.ReadMemStats it does not stop the world, so it
// can bracket every op.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// gcCounters is a snapshot of the collector's cumulative work.
type gcCounters struct {
	cycles  uint32
	pauseNS uint64
	alloc   uint64
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{cycles: ms.NumGC, pauseNS: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// decisionSink tallies FLB's scheduling decisions (obs.SchedStep and
// obs.TaskDemoted) over every observed run.
type decisionSink struct {
	obs.NopSink
	tasks, steps, epWins, ties, demotions int
	nonEPLen, activeProcs                 float64
}

func (d *decisionSink) Begin(e obs.Begin) { d.tasks += e.Tasks }

func (d *decisionSink) SchedStep(e obs.SchedStep) {
	d.steps++
	if e.ChoseEP {
		d.epWins++
	}
	if e.Tie {
		d.ties++
	}
	d.nonEPLen += float64(e.NonEPLen)
	d.activeProcs += float64(e.ActiveProcs)
}

func (d *decisionSink) TaskDemoted(obs.TaskDemoted) { d.demotions++ }

// addTo reports the tallies as per-layer metrics.
func (d *decisionSink) addTo(l *layerSet) {
	if d.steps == 0 {
		return
	}
	steps := float64(d.steps)
	l.set("core.steps", steps, d.steps, "")
	l.set("core.ep_win_pct", 100*float64(d.epWins)/steps, d.steps, "")
	l.set("core.tie_pct", 100*float64(d.ties)/steps, d.steps, "")
	l.set("core.demotions_per_task", float64(d.demotions)/float64(d.tasks), d.tasks, "")
	l.set("core.nonep_len_mean", d.nonEPLen/steps, d.steps, "")
	l.set("core.active_procs_mean", d.activeProcs/steps, d.steps, "")
}

// cpuGroups attribute placement CPU to FLB's paper procedures and to the
// heap package. The procedures do not call one another (apart from
// classifyReady, inside updateReadyTasks), so a procedure's cumulative
// samples are its self time at procedure granularity: its own code plus
// the heap, graph and schedule helpers it calls. The heap's share is its
// flat self time, summed over every caller. Patterns match pprof's
// function names.
var cpuGroups = []struct {
	metric string
	cum    bool
	re     *regexp.Regexp
}{
	{"core.cpu_pct.schedule_task", true, regexp.MustCompile(`^flb/internal/core\.\(\*flbState\)\.scheduleTask$`)},
	{"core.cpu_pct.update_task_lists", true, regexp.MustCompile(`^flb/internal/core\.\(\*flbState\)\.updateTaskLists$`)},
	{"core.cpu_pct.update_proc_lists", true, regexp.MustCompile(`^flb/internal/core\.\(\*flbState\)\.updateProcLists$`)},
	{"core.cpu_pct.ready", true, regexp.MustCompile(`^flb/internal/core\.\(\*flbState\)\.updateReadyTasks$`)},
	{"pq.cpu_pct", false, regexp.MustCompile(`^flb/internal/pq\.`)},
}

// placementFocus selects the profile samples taken inside FLB placement.
const placementFocus = `^flb/internal/core\.\(\*Scheduler\)\.Schedule$`

// profiler records a CPU profile of the measured loop.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profiler, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	p := &profiler{path: path}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.f = f
	return p, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// attribute runs `go tool pprof -top` on the profile, restricted to
// samples inside FLB placement, and reports each group's share of those
// samples together with the sample count.
func (p *profiler) attribute(l *layerSet) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-sample_index=samples",
		"-nodecount=100000", "-nodefraction=0", "-edgefraction=0",
		"-focus="+placementFocus, exe, p.path)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat, cum, err := parsePprofTop(out.String())
	if err != nil {
		return err
	}
	var total float64
	for _, v := range flat {
		total += v
	}
	n := int(total)
	l.set("cpu.samples", total, n, "profile samples inside core.(*Scheduler).Schedule")
	if total == 0 {
		return nil
	}
	for _, g := range cpuGroups {
		col, kind := flat, "self"
		if g.cum {
			col, kind = cum, "cumulative"
		}
		var s float64
		for fn, v := range col {
			if g.re.MatchString(fn) {
				s += v
			}
		}
		l.set(g.metric, 100*s/total, n, fmt.Sprintf("%s, %.0f of %d samples", kind, s, n))
	}
	return nil
}

// parsePprofTop reads the flat and cum columns of `pprof -top` output,
// keyed by function name.
func parsePprofTop(text string) (flat, cum map[string]float64, err error) {
	flat, cum = make(map[string]float64), make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		fv, err1 := strconv.ParseFloat(f[0], 64)
		cv, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("pprof -top: bad row %q", sc.Text())
		}
		flat[f[5]] += fv
		cum[f[5]] = max(cum[f[5]], cv)
	}
	if !inTable {
		return nil, nil, fmt.Errorf("pprof -top: no table in output")
	}
	return flat, cum, sc.Err()
}
