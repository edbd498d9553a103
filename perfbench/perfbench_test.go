package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// smoke returns options for a short run on small inputs.
func smoke(t *testing.T, workload string, seed int64, trace bool) options {
	return options{
		workload: workload,
		seed:     seed,
		seconds:  0.5,
		trace:    trace,
		out:      t.TempDir(),
		sizes:    sizes{fig2V: 200, flbdV: 200, flbdRate: 100, setupReps: 2, laterSetups: 1},
	}
}

// runSmoke runs one workload and returns its report and its JSON line.
func runSmoke(t *testing.T, o options) (*report, map[string]any) {
	t.Helper()
	r, err := workloads[o.workload](o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	var out bytes.Buffer
	if err := r.print(&out); err != nil {
		t.Fatalf("%s: print: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\n%s", o.workload, err, out.String())
	}
	if keys := sortedKeys(res); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("%s: JSON keys %v", o.workload, keys)
	}
	if res["correct"] != true || res["failed"] != 0.0 || res["attempted"].(float64) < 1 {
		t.Fatalf("%s: correct=%v failed=%v attempted=%v\n%s", o.workload, res["correct"], res["failed"], res["attempted"], out.String())
	}
	return r, res
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// checkJSONMetrics asserts the JSON line carries exactly the listed
// metrics, each a finite number with its unit.
func checkJSONMetrics(t *testing.T, workload string, res map[string]any, defs []metricDef) {
	t.Helper()
	m := res["metrics"].(map[string]any)
	if got, want := strings.Join(sortedKeys(m), ","), strings.Join(metricNames(defs), ","); got != want {
		t.Fatalf("%s: metrics\n got %s\nwant %s", workload, got, want)
	}
	for _, d := range defs {
		v := m[d.name].(map[string]any)
		if f, ok := v["value"].(float64); !ok || math.IsNaN(f) || v["unit"] != d.unit {
			t.Errorf("%s: %s = %v", workload, d.name, v)
		}
	}
}

func TestEndToEndSmokeAndDigest(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		t.Run(w, func(t *testing.T) {
			r, res := runSmoke(t, smoke(t, w, 1, false))
			checkJSONMetrics(t, w, res, endToEnd)
			for _, d := range append(append([]metricDef(nil), endToEnd...), endToEndExtra...) {
				if _, ok := r.e2e[d.name]; !ok {
					t.Errorf("%s: end-to-end metric %s not measured", w, d.name)
				}
			}
			if r.e2e["fail_pct"].value != 0 {
				t.Errorf("%s: fail_pct = %v", w, r.e2e["fail_pct"].value)
			}
			again, _ := runSmoke(t, smoke(t, w, 1, false))
			if again.digest != r.digest {
				t.Errorf("%s: seed 1 digests differ: %016x vs %016x", w, r.digest, again.digest)
			}
			other, _ := runSmoke(t, smoke(t, w, 2, false))
			if other.digest == r.digest {
				t.Errorf("%s: seeds 1 and 2 give the same digest %016x", w, r.digest)
			}
		})
	}
}

// exercised lists the per-layer metrics each workload must measure itself
// rather than report as not exercised.
var exercised = map[string][]string{
	"fig2-place": {
		"workload.build_ms.lu", "workload.build_ms.stencil",
		"graph.csr_ms", "graph.topo_ms", "graph.levels_ms", "graph.validate_ms", "graph.bytes_per_ve",
		"core.place_ms", "core.place_ns_per_task", "core.flb_over_fcp",
		"core.steps", "core.ep_win_pct", "core.tie_pct", "core.demotions_per_task",
		"core.nonep_len_mean", "core.active_procs_mean",
		"gc.cycles", "gc.pause_ms", "alloc_bytes_per_task", "trace.overhead_pct",
	},
	"flbd-mixed": {
		"graph.parse_ms", "memo.fingerprint_ms", "memo.get_ms", "memo.put_ms", "memo.hit_pct", "memo.gets",
		"core.place_ms", "sim.execute_ms",
		"svc.queue_ms", "svc.run_ms", "svc.outside_ms", "svc.cached_pct",
		"loadgen.lag_p99_ms", "trace.overhead_pct",
	},
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	covered := map[string]bool{}
	for _, w := range sortedKeys(workloads) {
		t.Run(w, func(t *testing.T) {
			o := smoke(t, w, 1, true)
			r, res := runSmoke(t, o)
			checkJSONMetrics(t, w, res, perLayer)
			for _, name := range exercised[w] {
				if _, ok := r.layers[name]; !ok {
					t.Errorf("%s: %s not measured", w, name)
				}
			}
			for name := range r.layers {
				covered[name] = true
			}
			if _, err := os.Stat(o.artifact("spans", "json")); err != nil {
				t.Errorf("%s: no span dump: %v", w, err)
			}
		})
	}
	for _, d := range perLayer {
		if !covered[d.name] && !strings.HasPrefix(d.name, "core.cpu_pct.") && d.name != "pq.cpu_pct" && d.name != "cpu.samples" {
			t.Errorf("no workload measures %s", d.name)
		}
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, c := range []struct {
		got  []def
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics listed, want %d", len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("metric %d is %s [%s], want %s [%s]", i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestQuantilesAndTailRule(t *testing.T) {
	s := sample{4, 1, 3, 2}
	if s.median() != 2.5 || s.iqr() != 1.5 {
		t.Errorf("median %v iqr %v, want 2.5 and 1.5", s.median(), s.iqr())
	}
	mk := func(n int) sample {
		s := make(sample, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		label string
	}{{1000, "p99"}, {999, "p95"}, {200, "p95"}, {100, "p90"}, {40, "p75"}, {20, "p50"}, {19, "max"}} {
		if label, _ := mk(c.n).tail(); label != c.label {
			t.Errorf("tail of %d samples reports %s, want %s", c.n, label, c.label)
		}
	}
	// One window's burst does not move the windowed tail.
	s = mk(3000)
	s[10] = 1e9
	if label, v := s.windowedTail(); label != "p99, median of 3 windows" || v > 3000 {
		t.Errorf("windowed tail %s = %v", label, v)
	}
	if label, _ := mk(999).windowedTail(); label != "p95" {
		t.Errorf("windowed tail of 999 samples reports %s, want p95", label)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 0, Start: 80, End: 90},
	}}
	self := tr.selfMS()
	// Children cover [10,60] and [80,90]: 60 of the op's 100 ns.
	if got := self["op"][0] * 1e6; math.Abs(got-40) > 1e-9 {
		t.Errorf("op self time %v ns, want 40", got)
	}
}

// sortedKeys returns m's keys in order, for stable comparisons.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
