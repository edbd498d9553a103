package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flb"
	"flb/internal/algo/fcp"
	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/memo"
	"flb/internal/schedule"
	"flb/internal/sim"
	"flb/internal/svc"
	"flb/internal/workload"
)

// The flbd-mixed workload drives an in-process flbd server (one worker,
// memo cache on) over a loopback listener, open loop: request i is due at
// i/flbdRate seconds, whatever happened to earlier requests, and its
// latency is timed from its due time. At most flbdSenders goroutines send,
// over at most as many connections. The trace below has the shape of
// flbload's built-in trace, scaled to V≈2000: exact repeats of two hot
// graphs (memo hits) beside fresh graphs (memo inserts), one execute=1
// line, one full=1 line, one speeds= line and a /metrics probe.
const (
	// flbdRate is the offered load in requests per second. Two senders
	// driving this trace closed-loop saturate the server at ~310 requests/s
	// on an otherwise idle 2-core x86-64 host and at ~180 requests/s while
	// another process shares it; the rate sits near half of the range's
	// middle, so the tail stays well short of saturation when the host is
	// contended.
	flbdRate = 120.0
	// flbdSenders bounds the sender goroutines and connections.
	flbdSenders = 2
	// flbdCacheCap is the server's memo cache size. It is smaller than the
	// fresh payloads' cycle (5 fresh lines × flbdPool), so a fresh payload
	// is always evicted before it recurs, while the hot ones stay.
	flbdCacheCap = 64
	// flbdPool is the number of distinct payloads of each fresh line.
	flbdPool = 16
	// flbdBaseSeed is the server's base seed, the scheduling seed of every
	// submission.
	flbdBaseSeed = 1
)

// flbdLine is one line of the request trace.
type flbdLine struct {
	family  string
	ccr     float64
	procs   int
	hot     int    // index of a shared hot payload; -1 for a fresh one per cycle
	query   string // extra query parameters
	metrics bool   // a GET /metrics probe instead of a submission
	related bool   // the query sets speeds=; the reference machine must match
}

var flbdTrace = []flbdLine{
	{family: "lu", ccr: 0.5, procs: 8, hot: 0},
	{family: "stencil", ccr: 1, procs: 8, hot: -1},
	{family: "lu", ccr: 0.5, procs: 8, hot: 0},
	{family: "fft", ccr: 1, procs: 8, hot: -1, query: "&full=1"},
	{family: "stencil", ccr: 1, procs: 8, hot: 1},
	{family: "laplace", ccr: 1, procs: 4, hot: -1, query: "&execute=1"},
	{family: "lu", ccr: 0.5, procs: 8, hot: 0},
	{family: "lu", ccr: 0.5, procs: 8, hot: -1, query: "&speeds=2,2,2,2", related: true},
	{family: "stencil", ccr: 5, procs: 8, hot: -1},
	{metrics: true},
}

// payload is one distinct submission with its reference result.
type payload struct {
	body          string
	path          string
	tasks         int
	g             *graph.Graph // the parsed body, kept only for full=1 checks
	sys           machine.System
	full, execute bool
	makespan      float64 // FLB makespan computed locally in set-up
	slr           float64
}

// flbdState is the output of set-up.
type flbdState struct {
	hot    []*payload
	fresh  [][]*payload // by trace line
	all    []*payload
	srv    *svc.Server
	ts     *httptest.Server
	client *http.Client
	base   svc.Snapshot // server counters after warm-up
}

// payloadFor returns the payload of request i, nil for a metrics probe.
func (st *flbdState) payloadFor(i int) *payload {
	ln := flbdTrace[i%len(flbdTrace)]
	switch {
	case ln.metrics:
		return nil
	case ln.hot >= 0:
		return st.hot[ln.hot]
	}
	return st.fresh[i%len(flbdTrace)][(i/len(flbdTrace))%flbdPool]
}

// newPayload generates one instance, encodes it as the server's text
// format, parses it back and schedules it locally for the reference.
func newPayload(o options, ln flbdLine, seed int64, tr *tracer, sc *core.Scheduler) (*payload, error) {
	id := tr.begin("workload.build."+ln.family, -1, -1)
	g, err := workload.Instance(ln.family, o.sizes.flbdV, ln.ccr, nil, seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	p := &payload{body: g.TextString(), sys: machine.NewSystem(ln.procs)}
	if ln.related {
		p.sys = relatedSystem(ln.procs)
	}
	p.path = fmt.Sprintf("/schedule?procs=%d%s", ln.procs, ln.query)
	p.full = strings.Contains(ln.query, "full=1")
	p.execute = strings.Contains(ln.query, "execute=1")
	// The reference schedules the body parsed back, as the server sees it.
	pg, err := graph.ParseText(p.body)
	if err != nil {
		return nil, err
	}
	p.tasks = pg.NumTasks()
	if p.full {
		p.g = pg
	}
	s, err := sc.Schedule(pg, p.sys)
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("reference schedule: %w", err)
	}
	p.makespan, p.slr = s.Makespan(), s.ComputeMetrics().SLR
	return p, nil
}

// flbdSetup generates every payload and its reference, starts the server
// on a loopback listener and warms it up with one request of each trace
// line (the fresh lines' last pool entries, long evicted by the time they
// recur).
func flbdSetup(o options, tr *tracer) (*flbdState, error) {
	st := &flbdState{fresh: make([][]*payload, len(flbdTrace))}
	sc := core.NewScheduler(core.FLB{})
	for li, ln := range flbdTrace {
		switch {
		case ln.metrics:
		case ln.hot >= 0:
			if ln.hot < len(st.hot) {
				continue
			}
			p, err := newPayload(o, ln, sim.DeriveSeed(o.seed, uint64(1<<20+ln.hot)), tr, sc)
			if err != nil {
				return nil, err
			}
			st.hot = append(st.hot, p)
			st.all = append(st.all, p)
		default:
			for c := 0; c < flbdPool; c++ {
				p, err := newPayload(o, ln, sim.DeriveSeed(o.seed, uint64(li*flbdPool+c)), tr, sc)
				if err != nil {
					return nil, err
				}
				st.fresh[li] = append(st.fresh[li], p)
				st.all = append(st.all, p)
			}
		}
	}
	st.srv = svc.New(svc.Config{Workers: 1, CacheCap: flbdCacheCap, BaseSeed: flbdBaseSeed})
	st.ts = httptest.NewServer(st.srv.Handler())
	st.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: flbdSenders, MaxIdleConnsPerHost: flbdSenders},
	}
	warm := (flbdPool - 1) * len(flbdTrace)
	for i := warm; i < warm+len(flbdTrace); i++ {
		res := st.fire(st.payloadFor(i))
		if res.err != nil || res.status != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("warm-up request %d: status %d: %v", i, res.status, res.err)
		}
	}
	var err error
	if st.base, err = st.snapshot(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops the listener (waiting for in-flight handlers), then drains
// the server's workers.
func (st *flbdState) close() error {
	st.client.CloseIdleConnections()
	st.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return st.srv.Drain(ctx)
}

// flbdResponse is the part of a /schedule answer the benchmark checks.
type flbdResponse struct {
	Tasks       int     `json:"tasks"`
	Makespan    float64 `json:"makespan"`
	Cached      bool    `json:"cached"`
	QueueMs     float64 `json:"queue_ms"`
	RunMs       float64 `json:"run_ms"`
	Assignments []struct {
		Task   int     `json:"task"`
		Proc   int     `json:"proc"`
		Start  float64 `json:"start"`
		Finish float64 `json:"finish"`
	} `json:"assignments"`
	Executed *struct {
		Makespan float64 `json:"makespan"`
	} `json:"executed"`
}

// flbdResult is one request's outcome. lag is how late it was sent, lat
// its latency from the due time, rtt from the actual send.
type flbdResult struct {
	status        int
	err           error
	body          []byte
	lag, lat, rtt time.Duration
	// resp is the checked answer of a submission; checkErr says why an
	// answer failed its check.
	resp     *flbdResponse
	checkErr error
}

// fire sends one request (a submission, or a metrics probe for nil) and
// reads the whole answer.
func (st *flbdState) fire(p *payload) flbdResult {
	var resp *http.Response
	var err error
	if p == nil {
		resp, err = st.client.Get(st.ts.URL + "/metrics")
	} else {
		resp, err = st.client.Post(st.ts.URL+p.path, "text/plain", strings.NewReader(p.body))
	}
	if err != nil {
		return flbdResult{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return flbdResult{status: resp.StatusCode, body: body, err: err}
}

func (st *flbdState) snapshot() (svc.Snapshot, error) {
	var snap svc.Snapshot
	res := st.fire(nil)
	if res.err != nil || res.status != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: status %d: %v", res.status, res.err)
	}
	if err := json.Unmarshal(res.body, &snap); err != nil {
		return snap, fmt.Errorf("GET /metrics: %w", err)
	}
	return snap, nil
}

// openLoop offers n requests at flbd's rate from flbdSenders goroutines
// and returns every outcome, indexed by request, each checked against its
// reference. With a tracer, requests of odd trace cycles are recorded as
// spans.
func (st *flbdState) openLoop(n int, rate float64, tr *tracer) ([]flbdResult, time.Duration) {
	results := make([]flbdResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < flbdSenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				var t *tracer
				if (i/len(flbdTrace))%2 == 1 {
					t = tr
				}
				p := st.payloadFor(i)
				sent := time.Now()
				id := t.begin("http.request", i, -1)
				res := st.fire(p)
				t.end(id)
				done := time.Now()
				res.lag, res.lat, res.rtt = sent.Sub(due), done.Sub(due), done.Sub(sent)
				// Checked here, after the timing, so no answer body
				// outlives its request.
				res.resp, res.checkErr = checkResponse(p, res)
				res.body = nil
				results[i] = res
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// checkResponse validates one answer against the payload's reference.
func checkResponse(p *payload, res flbdResult) (*flbdResponse, error) {
	if res.err != nil {
		return nil, res.err
	}
	if res.status/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", res.status, strings.TrimSpace(string(res.body)))
	}
	if p == nil {
		var snap svc.Snapshot
		return nil, json.Unmarshal(res.body, &snap)
	}
	var resp flbdResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		return nil, err
	}
	if resp.Tasks != p.tasks || resp.Makespan != p.makespan { // exact: FLB is deterministic
		return nil, fmt.Errorf("%d tasks, makespan %v; want %d tasks, makespan %v", resp.Tasks, resp.Makespan, p.tasks, p.makespan)
	}
	if p.execute && (resp.Executed == nil || resp.Executed.Makespan != p.makespan) {
		return nil, fmt.Errorf("execute=1: executed makespan missing or differs from %v", p.makespan)
	}
	if p.full {
		if len(resp.Assignments) != p.tasks {
			return nil, fmt.Errorf("full=1: %d assignments for %d tasks", len(resp.Assignments), p.tasks)
		}
		s := schedule.New(p.g, p.sys)
		for _, a := range resp.Assignments {
			if a.Task < 0 || a.Task >= p.tasks || s.Assigned(a.Task) || a.Proc < 0 || a.Proc >= p.sys.P {
				return nil, fmt.Errorf("full=1: bad assignment %+v", a)
			}
			s.Place(a.Task, a.Proc, a.Start)
			if s.Finish(a.Task) != a.Finish {
				return nil, fmt.Errorf("full=1: task %d finishes at %v, want %v", a.Task, a.Finish, s.Finish(a.Task))
			}
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		resp.Assignments = nil // checked; not kept
	}
	return &resp, nil
}

func runFlbd(o options) (*report, error) {
	r := &report{workload: o.workload, trace: o.trace}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var st *flbdState
	setup, err := measureSetup(o.sizes.setupReps, func(last bool) error {
		var t *tracer
		if last {
			t = tr
		}
		s, err := flbdSetup(o, t)
		if err != nil {
			return err
		}
		if last {
			st = s
			return nil
		}
		return s.close()
	})
	if err != nil {
		return nil, err
	}

	var prof *profiler
	if o.trace {
		if prof, err = startProfile(o.artifact("cpu", "pprof")); err != nil {
			st.close()
			return nil, err
		}
	}
	n := int(o.sizes.flbdRate * o.seconds)
	gc0 := readGC()
	results, wall := st.openLoop(n, o.sizes.flbdRate, tr)
	gc1 := readGC()
	if prof != nil {
		if err := prof.stop(); err != nil {
			st.close()
			return nil, err
		}
	}
	final, snapErr := st.snapshot()
	if err := st.close(); err != nil {
		return nil, err
	}
	if snapErr != nil {
		return nil, snapErr
	}

	var (
		lat, lag, slr          sample
		tracedLat, untracedLat sample
		queue, run, outside    sample
		tasks                  float64
		cached, ok             int
	)
	for _, p := range st.all {
		slr = append(slr, p.slr)
	}
	for i, res := range results {
		p := st.payloadFor(i)
		r.attempted++
		lag = append(lag, float64(res.lag.Nanoseconds())/1e6)
		resp, err := res.resp, res.checkErr
		if err != nil {
			r.failed++
			if r.failed <= 5 {
				r.notef("request %d: %v", i, err)
			}
			if p != nil {
				r.digest = digestAdd(r.digest, 0)
			}
			continue
		}
		if p == nil {
			continue
		}
		r.digest = digestAdd(r.digest, resp.Makespan)
		ms := float64(res.lat.Nanoseconds()) / 1e6
		if (i/len(flbdTrace))%2 == 1 {
			tracedLat = append(tracedLat, ms)
		} else {
			untracedLat = append(untracedLat, ms)
		}
		lat = append(lat, ms)
		tasks += float64(resp.Tasks)
		ok++
		if resp.Cached {
			cached++
		}
		queue = append(queue, resp.QueueMs)
		run = append(run, resp.RunMs)
		outside = append(outside, float64(res.rtt.Nanoseconds())/1e6-resp.QueueMs-resp.RunMs)
	}
	c0, c1 := st.base.Cache, final.Cache
	s0, s1 := st.base.Service, final.Service
	r.notef("offered %d requests at %g/s over %.3f s; lag %s", n, o.sizes.flbdRate, wall.Seconds(), tailNote(lag))
	r.notef("server /metrics over the run: %d requests, %d 2xx, %d shed 429, %d 5xx; cache gets %d hits %d near %d puts %d evictions %d",
		s1.Requests-s0.Requests, s1.OK-s0.OK, s1.ShedQueueFull-s0.ShedQueueFull, s1.Internal-s0.Internal+s1.Panics-s0.Panics,
		c1.Gets-c0.Gets, c1.Hits-c0.Hits, c1.NearHits-c0.NearHits, c1.Puts-c0.Puts, c1.Evictions-c0.Evictions)
	if !o.trace {
		// The run's payloads and answers are dropped first, so the later
		// set-ups reuse their memory and do not raise peak RSS.
		st, results = nil, nil
		for i := 0; i < o.sizes.laterSetups; i++ {
			sec, err := laterSetup(func() error {
				s, err := flbdSetup(o, nil)
				if err != nil {
					return err
				}
				return s.close()
			})
			if err != nil {
				return nil, err
			}
			setup = append(setup, sec)
		}
		return r, r.endToEndMetrics(setup, lat, tasks, wall.Seconds(), gc1.alloc-gc0.alloc, slr)
	}

	l := &r.layers
	l.median("svc.queue_ms", queue)
	l.median("svc.run_ms", run)
	l.median("svc.outside_ms", outside)
	l.set("svc.cached_pct", 100*float64(cached)/float64(ok), ok, "responses answered from the memo cache")
	label, v := lag.tail()
	l.set("loadgen.lag_p99_ms", v, len(lag), "reported percentile: "+label)
	l.set("gc.cycles", float64(gc1.cycles-gc0.cycles), 1, "over the open loop, server and client")
	l.set("gc.pause_ms", float64(gc1.pauseNS-gc0.pauseNS)/1e6, int(gc1.cycles-gc0.cycles), "total over the open loop")
	l.set("alloc_bytes_per_task", float64(gc1.alloc-gc0.alloc)/tasks, ok, "server and client, whole run")
	l.set("trace.overhead_pct", 100*(tracedLat.median()/untracedLat.median()-1), len(tracedLat),
		fmt.Sprintf("latency p50 traced cycles %.4g ms vs untraced %.4g ms", tracedLat.median(), untracedLat.median()))
	if err := prof.attribute(l); err != nil {
		return nil, err
	}
	if err := flbdReplay(r, st, min(n, flbdPool*len(flbdTrace)), tr); err != nil {
		return nil, err
	}
	self := tr.selfMS()
	r.notef("check graph.parse_ms + svc.outside_ms > core.place_ms: %v",
		self["graph.parse"].median()+outside.median() > self["core.place"].median())
	return r, tr.write(o.artifact("spans", "json"))
}

func tailNote(s sample) string {
	label, v := s.tail()
	return fmt.Sprintf("%s %.4g ms (n=%d)", label, v, len(s))
}

// flbdReplay sends the first n requests' payloads, off the HTTP path,
// through the calls the server's handler and worker make, in their order:
// graph.ReadTextLimits, memo.KeyOf, Cache.Get, and on a miss
// Scheduler.Schedule and Cache.Put, then flb.Execute for execute=1. It
// also probes the graph layer, times FCP and observes FLB's decisions on
// each distinct payload once.
func flbdReplay(r *report, st *flbdState, n int, tr *tracer) error {
	cache := memo.NewCache(flbdCacheCap)
	sc := core.NewScheduler(core.FLB{})
	var sink decisionSink
	var placeNS, placeT, fcpT, bpve sample
	seen := map[*payload]bool{}
	for i := 0; i < n; i++ {
		p := st.payloadFor(i)
		if p == nil {
			continue
		}
		id := tr.begin("graph.parse", i, -1)
		g, err := graph.ReadTextLimits(strings.NewReader(p.body), graph.Limits{})
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("memo.fingerprint", i, -1)
		key := memo.KeyOf(g, p.sys, "flb", flbdBaseSeed)
		tr.end(id)
		id = tr.begin("memo.get", i, -1)
		out, hit := cache.Get(g, p.sys, key, false)
		tr.end(id)
		if !hit {
			id = tr.begin("core.place", i, -1)
			out, err = sc.Schedule(g, p.sys)
			tr.end(id)
			if err != nil {
				return err
			}
			d := float64(tr.spans[id].End-tr.spans[id].Start) / 1e6
			placeT = append(placeT, d)
			placeNS = append(placeNS, d*1e6/float64(g.NumTasks()))
			id = tr.begin("memo.put", i, -1)
			cache.Put(g, p.sys, key, out)
			tr.end(id)
		}
		if p.execute {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			id = tr.begin("sim.execute", i, -1)
			er, err := flb.Execute(out, flb.WithContext(ctx), flb.WithJitter(0, 0),
				flb.WithFaults(fault.Plan{}), flb.WithSeed(sim.DeriveSeed(flbdBaseSeed, uint64(i))))
			tr.end(id)
			cancel()
			if err != nil {
				return err
			}
			if er.Makespan != p.makespan {
				r.wrong++
				r.notef("replay %d: executed makespan %v, want %v", i, er.Makespan, p.makespan)
			}
		}
		if out.Makespan() != p.makespan {
			r.wrong++
			r.notef("replay %d: makespan %v, want %v", i, out.Makespan(), p.makespan)
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		b, err := graphProbe(tr, g, i)
		if err != nil {
			return err
		}
		bpve = append(bpve, b)
		id = tr.begin("core.fcp", i, -1)
		_, err = fcp.FCP{}.Schedule(g, p.sys)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("FCP: %w", err)
		}
		fcpT = append(fcpT, float64(tr.spans[id].End-tr.spans[id].Start)/1e6)
		sc.Observe(&sink)
		_, err = sc.Schedule(g, p.sys)
		sc.Observe(nil)
		if err != nil {
			return err
		}
	}
	l := &r.layers
	self := tr.selfMS()
	for _, fam := range []string{"lu", "stencil"} {
		l.median("workload.build_ms."+fam, self["workload.build."+fam])
	}
	for _, name := range []string{"csr", "topo", "levels", "validate", "parse"} {
		l.median("graph."+name+"_ms", self["graph."+name])
	}
	l.median("graph.bytes_per_ve", bpve)
	for _, name := range []string{"fingerprint", "get", "put"} {
		l.median("memo."+name+"_ms", self["memo."+name])
	}
	cs := cache.Stats()
	l.set("memo.gets", float64(cs.Gets), int(cs.Gets), "replay")
	l.set("memo.hit_pct", 100*float64(cs.Hits)/float64(cs.Gets), int(cs.Gets), fmt.Sprintf("%d hits of %d gets", cs.Hits, cs.Gets))
	l.median("core.place_ms", placeT)
	l.median("core.place_ns_per_task", placeNS)
	l.set("core.flb_over_fcp", placeT.median()/fcpT.median(), len(fcpT),
		fmt.Sprintf("FLB %.4g ms on misses / FCP %.4g ms on distinct payloads, medians", placeT.median(), fcpT.median()))
	l.median("sim.execute_ms", self["sim.execute"])
	sink.addTo(l)
	return nil
}
