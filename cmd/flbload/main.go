// Command flbload is an open-loop trace-replay load generator for flbd.
// It pre-generates submission payloads from a trace, replays them against
// the daemon at a fixed arrival rate — open loop: arrivals do not wait
// for responses, so an overloaded server is actually overloaded — and
// reports per-endpoint status-class counts and latency percentiles,
// machine-readable, for the overload experiments of DESIGN.md §15.
//
// Usage:
//
//	flbload -url http://localhost:8080 -rps 50 -duration 10s
//	flbload -trace trace.txt -rps 200 -duration 5s -o results/overload.json
//
// Trace format, one request per line ('#' starts a comment):
//
//	submit <family> <tasks> <procs> [ccr] [execute]
//	metrics
//
// Lines are replayed round-robin. Payload weights are seeded with
// DeriveSeed(-seed, line-index), so a trace replays identically across
// runs and machines. Without -trace a built-in mixed trace is used.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flb/internal/sim"
	"flb/internal/stats"
	"flb/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flbload:", err)
		os.Exit(1)
	}
}

// defaultTrace mixes cache-friendly repeats, distinct families, an
// execution run and a metrics probe.
const defaultTrace = `
# built-in mixed trace
submit lu 200 8 0.5
submit stencil 200 8 1
submit lu 200 8 0.5
submit fft 128 8 1
submit laplace 150 4 1 execute
metrics
`

// request is one pre-generated trace entry, ready to fire.
type request struct {
	kind  string // "schedule" or "metrics"
	path  string // URL path + query
	body  string // empty for GETs
	label string // trace line, for the report
}

// result is one completed request.
type result struct {
	kind      string
	status    int // 0 on transport error
	latencyMs float64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flbload", flag.ContinueOnError)
	var (
		baseURL   = fs.String("url", "http://localhost:8080", "flbd base URL")
		tracePath = fs.String("trace", "", "trace file (empty = built-in mixed trace)")
		rps       = fs.Float64("rps", 20, "target request arrival rate per second")
		duration  = fs.Duration("duration", 10*time.Second, "how long to offer load")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request client timeout")
		seed      = fs.Int64("seed", 1, "base seed for payload generation")
		out       = fs.String("o", "results/flbload.json", "machine-readable report path (empty = stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rps <= 0 {
		return fmt.Errorf("rps must be > 0")
	}

	traceText := defaultTrace
	if *tracePath != "" {
		b, err := os.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		traceText = string(b)
	}
	reqs, err := buildRequests(traceText, *seed)
	if err != nil {
		return err
	}
	if len(reqs) == 0 {
		return fmt.Errorf("trace has no requests")
	}

	rep := replay(*baseURL, reqs, *rps, *duration, *timeout)
	rep.Trace = traceLabels(reqs)
	rep.Seed = *seed

	// Snapshot the server's own counters so the report pairs client-side
	// and server-side views of the same run.
	if snap, err := fetchMetrics(*baseURL, *timeout); err == nil {
		rep.ServerMetrics = snap
	} else {
		fmt.Fprintf(stdout, "warning: could not fetch server metrics: %v\n", err)
	}

	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report: %s\n", *out)
	}
	fmt.Fprint(stdout, rep.Format())
	return nil
}

// buildRequests pre-generates every trace entry's payload. Weights are
// seeded per line index from the base seed, never from the clock, so a
// trace replays identically.
func buildRequests(trace string, seed int64) ([]request, error) {
	var reqs []request
	sc := bufio.NewScanner(strings.NewReader(trace))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "metrics":
			reqs = append(reqs, request{kind: "metrics", path: "/metrics", label: "metrics"})
		case "submit":
			r, err := buildSubmit(fields, lineNo, seed, len(reqs))
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
		default:
			return nil, fmt.Errorf("trace line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	return reqs, sc.Err()
}

func buildSubmit(fields []string, lineNo int, seed int64, index int) (request, error) {
	execute := false
	if n := len(fields); n > 1 && fields[n-1] == "execute" {
		execute = true
		fields = fields[:n-1]
	}
	if len(fields) < 4 || len(fields) > 5 {
		return request{}, fmt.Errorf("trace line %d: want 'submit <family> <tasks> <procs> [ccr] [execute]'", lineNo)
	}
	family := fields[1]
	v, err := strconv.Atoi(fields[2])
	if err != nil || v < 1 {
		return request{}, fmt.Errorf("trace line %d: bad task count %q", lineNo, fields[2])
	}
	procs, err := strconv.Atoi(fields[3])
	if err != nil || procs < 1 {
		return request{}, fmt.Errorf("trace line %d: bad procs %q", lineNo, fields[3])
	}
	ccr := 1.0
	if len(fields) == 5 {
		if ccr, err = strconv.ParseFloat(fields[4], 64); err != nil || ccr < 0 {
			return request{}, fmt.Errorf("trace line %d: bad ccr %q", lineNo, fields[4])
		}
	}
	g, err := workload.Instance(family, v, ccr, nil, sim.DeriveSeed(seed, uint64(index)))
	if err != nil {
		return request{}, fmt.Errorf("trace line %d: %w", lineNo, err)
	}
	path := fmt.Sprintf("/schedule?procs=%d", procs)
	if execute {
		path += "&execute=1"
	}
	label := strings.Join(fields[1:], " ")
	if execute {
		label += " execute"
	}
	return request{kind: "schedule", path: path, body: g.TextString(), label: "submit " + label}, nil
}

func traceLabels(reqs []request) []string {
	labels := make([]string, len(reqs))
	for i, r := range reqs {
		labels[i] = r.label
	}
	return labels
}

// replay offers the trace open-loop at the target rate: a ticker paces
// arrivals and every arrival fires on its own goroutine, so response
// latency never throttles the offered load.
//
//flb:wallclock load generation is real-time by nature: pacing, latency measurement
func replay(baseURL string, reqs []request, rps float64, duration, timeout time.Duration) *Report {
	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		},
	}
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	results := make(chan result, 4096)
	var wg sync.WaitGroup
	var offered int

	start := time.Now()
	tick := time.NewTicker(interval)
	for time.Since(start) < duration {
		<-tick.C
		r := reqs[offered%len(reqs)]
		offered++
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- fire(client, baseURL, r)
		}()
	}
	tick.Stop()
	offeredDur := time.Since(start)
	go func() {
		wg.Wait()
		close(results)
	}()

	rep := &Report{
		URL:       baseURL,
		TargetRPS: rps,
		Duration:  duration.String(),
		Offered:   offered,
		Endpoints: map[string]*EndpointStats{},
	}
	lats := map[string][]float64{}   // all completed, per endpoint
	okLats := map[string][]float64{} // accepted (2xx) only
	for res := range results {
		ep := rep.Endpoints[res.kind]
		if ep == nil {
			ep = &EndpointStats{}
			rep.Endpoints[res.kind] = ep
		}
		ep.Sent++
		switch {
		case res.status == 0:
			ep.Transport++
		case res.status < 300:
			ep.OK2xx++
			okLats[res.kind] = append(okLats[res.kind], res.latencyMs)
		case res.status == http.StatusTooManyRequests:
			ep.Shed429++
		case res.status < 500:
			ep.Client4xx++
		default:
			ep.Server5xx++
		}
		if res.status != 0 {
			lats[res.kind] = append(lats[res.kind], res.latencyMs)
		}
	}
	rep.AchievedRPS = float64(offered) / offeredDur.Seconds()
	for kind, ep := range rep.Endpoints {
		ep.LatencyMs = stats.QuantilesOf(lats[kind])
		ep.AcceptedLatencyMs = stats.QuantilesOf(okLats[kind])
	}
	return rep
}

// fire issues one request and classifies the outcome. The body is always
// drained so the transport can reuse the connection.
//
//flb:wallclock times one request round-trip
func fire(client *http.Client, baseURL string, r request) result {
	t0 := time.Now()
	var resp *http.Response
	var err error
	if r.kind == "metrics" {
		resp, err = client.Get(baseURL + r.path)
	} else {
		resp, err = client.Post(baseURL+r.path, "text/plain", strings.NewReader(r.body))
	}
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return result{kind: r.kind, status: 0, latencyMs: lat}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return result{kind: r.kind, status: resp.StatusCode, latencyMs: lat}
}

// fetchMetrics grabs the server's /metrics document verbatim.
func fetchMetrics(baseURL string, timeout time.Duration) (json.RawMessage, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// Report is the machine-readable run summary.
type Report struct {
	URL         string                    `json:"url"`
	TargetRPS   float64                   `json:"target_rps"`
	AchievedRPS float64                   `json:"achieved_rps"`
	Duration    string                    `json:"duration"`
	Offered     int                       `json:"offered"`
	Seed        int64                     `json:"seed"`
	Trace       []string                  `json:"trace"`
	Endpoints   map[string]*EndpointStats `json:"endpoints"`
	// ServerMetrics embeds the server's own /metrics snapshot taken right
	// after the run, pairing both views of the same interval.
	ServerMetrics json.RawMessage `json:"server_metrics,omitempty"`
}

// EndpointStats is the per-endpoint outcome breakdown.
type EndpointStats struct {
	Sent      int `json:"sent"`
	OK2xx     int `json:"ok_2xx"`
	Shed429   int `json:"shed_429"`
	Client4xx int `json:"client_4xx"`
	Server5xx int `json:"server_5xx"`
	Transport int `json:"transport_errors"`

	// LatencyMs summarizes every completed request; AcceptedLatencyMs
	// only the 2xx ones — the number admission control promises to bound.
	// Both are in milliseconds.
	LatencyMs         stats.Quantiles `json:"latency_ms"`
	AcceptedLatencyMs stats.Quantiles `json:"accepted_latency_ms"`
}

// Format renders the human-readable summary.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d requests in %s (target %.0f rps, achieved %.1f rps)\n",
		r.Offered, r.Duration, r.TargetRPS, r.AchievedRPS)
	kinds := make([]string, 0, len(r.Endpoints))
	for k := range r.Endpoints {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ep := r.Endpoints[k]
		fmt.Fprintf(&b, "%-9s sent %-5d 2xx %-5d 429 %-5d 4xx %-5d 5xx %-5d transport %d\n",
			k, ep.Sent, ep.OK2xx, ep.Shed429, ep.Client4xx, ep.Server5xx, ep.Transport)
		if ep.AcceptedLatencyMs.Count > 0 {
			l := ep.AcceptedLatencyMs
			fmt.Fprintf(&b, "%-9s accepted latency ms: p50 %.1f p90 %.1f p99 %.1f max %.1f\n",
				"", l.P50, l.P90, l.P99, l.Max)
		}
	}
	return b.String()
}

func writeReport(path string, rep *Report) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
