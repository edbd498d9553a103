package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flb/internal/sim"
)

// testServer pairs a Server with an httptest front end and drains both on
// cleanup. Tests that block jobs via Config.testHook must release them
// before returning, or the cleanup drain would hang.
type testServer struct {
	s  *Server
	ts *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return &testServer{s: s, ts: ts}
}

// submit POSTs a graph body and returns the status and raw response body.
func (e *testServer) submit(t *testing.T, query, body string) (int, []byte) {
	t.Helper()
	resp, err := e.ts.Client().Post(e.ts.URL+"/schedule"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("submit read: %v", err)
	}
	return resp.StatusCode, b
}

type asyncResult struct {
	status     int
	body       []byte
	retryAfter string
	err        error
}

// submitAsync POSTs on a fresh goroutine; the result arrives on the
// returned channel. Used when the job is held in flight by a test hook.
func (e *testServer) submitAsync(query, body string) <-chan asyncResult {
	ch := make(chan asyncResult, 1)
	go func() {
		resp, err := e.ts.Client().Post(e.ts.URL+"/schedule"+query, "text/plain", strings.NewReader(body))
		if err != nil {
			ch <- asyncResult{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		ch <- asyncResult{status: resp.StatusCode, body: b, retryAfter: resp.Header.Get("Retry-After")}
	}()
	return ch
}

func (e *testServer) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + path)
	if err != nil {
		t.Fatalf("get %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func (e *testServer) metrics(t *testing.T) Snapshot {
	t.Helper()
	status, b := e.get(t, "/metrics")
	if status != 200 {
		t.Fatalf("/metrics status = %d, want 200", status)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("/metrics decode: %v", err)
	}
	return snap
}

// textBody builds a chain graph in the module's text format.
func textBody(name string, v int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s\n", name)
	for i := 0; i < v; i++ {
		fmt.Fprintf(&b, "task %d %d\n", i, i+1)
	}
	for i := 1; i < v; i++ {
		fmt.Fprintf(&b, "edge %d %d 1\n", i-1, i)
	}
	return b.String()
}

// stgBody builds the same chain in weighted STG format.
func stgBody(v int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", v)
	for i := 0; i < v; i++ {
		if i == 0 {
			fmt.Fprintf(&b, "0 1 0\n")
		} else {
			fmt.Fprintf(&b, "%d %d 1 %d 1\n", i, i+1, i-1)
		}
	}
	return b.String()
}

// cutAt builds a body over a 2048-byte cap that the cap cuts k bytes
// into line: head, then a comment line padding it out, then line.
func cutAt(head, line string, k int) string {
	pad := 2048 - len(head) - k
	return head + "#" + strings.Repeat("x", pad-2) + "\n" + line
}

func decodeSchedule(t *testing.T, b []byte) scheduleResponse {
	t.Helper()
	var r scheduleResponse
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("decode schedule response: %v (body %q)", err, b)
	}
	return r
}

func TestScheduleBasicAndCache(t *testing.T) {
	e := newTestServer(t, Config{Workers: 2, QueueCap: 8, CacheCap: -1})
	status, b := e.submit(t, "?full=1&procs=4", textBody("g", 6))
	if status != 200 {
		t.Fatalf("status = %d, body %s", status, b)
	}
	r := decodeSchedule(t, b)
	if r.Tasks != 6 || r.Edges != 5 || r.Procs != 4 {
		t.Errorf("shape = %d tasks %d edges %d procs, want 6/5/4", r.Tasks, r.Edges, r.Procs)
	}
	if r.Algorithm != "flb" {
		t.Errorf("algorithm = %q, want flb", r.Algorithm)
	}
	if r.Makespan <= 0 {
		t.Errorf("makespan = %v, want > 0", r.Makespan)
	}
	if r.Cached {
		t.Error("first submission reported cached")
	}
	if len(r.Assignments) != 6 {
		t.Errorf("assignments = %d, want 6 with full=1", len(r.Assignments))
	}
	// A chain must respect precedence in the reported assignment.
	for i := 1; i < len(r.Assignments); i++ {
		if r.Assignments[i].Start < r.Assignments[i-1].Finish-1e-9 {
			t.Errorf("task %d starts %v before predecessor finishes %v",
				i, r.Assignments[i].Start, r.Assignments[i-1].Finish)
		}
	}

	// The identical submission is a memo hit with the same makespan.
	status2, b2 := e.submit(t, "?procs=4", textBody("g", 6))
	if status2 != 200 {
		t.Fatalf("repeat status = %d, body %s", status2, b2)
	}
	r2 := decodeSchedule(t, b2)
	if !r2.Cached {
		t.Error("repeat submission not served from cache")
	}
	if r2.Makespan != r.Makespan {
		t.Errorf("cached makespan %v != cold makespan %v", r2.Makespan, r.Makespan)
	}

	snap := e.metrics(t)
	if snap.Service.Requests != 2 || snap.Service.OK != 2 {
		t.Errorf("requests/ok = %d/%d, want 2/2", snap.Service.Requests, snap.Service.OK)
	}
	if snap.Service.State != "accepting" {
		t.Errorf("state = %q, want accepting", snap.Service.State)
	}
	if snap.Cache == nil {
		t.Fatal("cache stats missing from /metrics")
	}
	if snap.Cache.Gets != 2 || snap.Cache.Hits != 1 || snap.Cache.Puts != 1 {
		t.Errorf("cache gets/hits/puts = %d/%d/%d, want 2/1/1",
			snap.Cache.Gets, snap.Cache.Hits, snap.Cache.Puts)
	}
	if snap.Sched.ScheduleRuns != 1 {
		t.Errorf("schedule runs = %d, want 1 (second request cached)", snap.Sched.ScheduleRuns)
	}
	if snap.Service.LatencyMs.Count != 2 {
		t.Errorf("latency count = %d, want 2", snap.Service.LatencyMs.Count)
	}
}

func TestScheduleRegistryAlgoAndFormats(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	status, b := e.submit(t, "?algo=mcp&procs=2", textBody("g", 5))
	if status != 200 {
		t.Fatalf("algo=mcp status = %d, body %s", status, b)
	}
	if r := decodeSchedule(t, b); r.Algorithm != "mcp" {
		t.Errorf("algorithm = %q, want mcp", r.Algorithm)
	}
	// The same chain via STG (query format override) schedules to the
	// same makespan as the text form.
	sText, bText := e.submit(t, "?procs=2", textBody("stg", 5))
	sSTG, bSTG := e.submit(t, "?format=stg&procs=2", stgBody(5))
	if sText != 200 || sSTG != 200 {
		t.Fatalf("status text/stg = %d/%d, bodies %s | %s", sText, sSTG, bText, bSTG)
	}
	mText := decodeSchedule(t, bText).Makespan
	mSTG := decodeSchedule(t, bSTG).Makespan
	if mText != mSTG {
		t.Errorf("text makespan %v != stg makespan %v for the same chain", mText, mSTG)
	}
}

// TestScheduleSpeeds: the speeds parameter builds a uniformly related
// machine (here uniformly twice as fast, halving the chain's makespan),
// and the all-1.0 spelling of the homogeneous machine canonicalizes to
// the nil-speeds form — sharing its cache entry.
func TestScheduleSpeeds(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 4, CacheCap: -1})
	body := textBody("g", 4)

	status, b := e.submit(t, "?procs=2", body)
	if status != 200 {
		t.Fatalf("homogeneous status = %d, body %s", status, b)
	}
	mHomo := decodeSchedule(t, b).Makespan

	status, b = e.submit(t, "?procs=2&speeds=2,2", body)
	if status != 200 {
		t.Fatalf("speeds status = %d, body %s", status, b)
	}
	if m := decodeSchedule(t, b).Makespan; m != mHomo/2 {
		t.Errorf("uniformly doubled speeds: makespan %v, want %v", m, mHomo/2)
	}

	// ?speeds=1,1 is the same problem as no speeds at all: it must be
	// served from the cache entry the first submission created.
	status, b = e.submit(t, "?procs=2&speeds=1,1", body)
	if status != 200 {
		t.Fatalf("unit speeds status = %d, body %s", status, b)
	}
	r := decodeSchedule(t, b)
	if !r.Cached {
		t.Error("all-1.0 speeds missed the homogeneous cache entry")
	}
	if r.Makespan != mHomo {
		t.Errorf("unit-speeds makespan %v != homogeneous %v", r.Makespan, mHomo)
	}
}

func TestExecuteDeterministicSeeds(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 4, BaseSeed: 7})
	// First request: id 1, so the default execution seed must be
	// DeriveSeed(BaseSeed, 1) — derived from the request id, not the clock.
	status, b := e.submit(t, "?execute=1&procs=4", textBody("g", 8))
	if status != 200 {
		t.Fatalf("status = %d, body %s", status, b)
	}
	r := decodeSchedule(t, b)
	if r.Executed == nil {
		t.Fatal("execute=1 returned no execution report")
	}
	want := sim.DeriveSeed(7, 1)
	if r.Executed.Seed != want {
		t.Errorf("execution seed = %d, want DeriveSeed(7, 1) = %d", r.Executed.Seed, want)
	}
	if r.Executed.Makespan <= 0 {
		t.Errorf("executed makespan = %v, want > 0", r.Executed.Makespan)
	}

	// Pinning ?seed makes the full run reproducible across submissions.
	s1, b1 := e.submit(t, "?execute=1&procs=4&seed=42&jitter=0.2&crash=0@1.5", textBody("g", 8))
	s2, b2 := e.submit(t, "?execute=1&procs=4&seed=42&jitter=0.2&crash=0@1.5", textBody("g", 8))
	if s1 != 200 || s2 != 200 {
		t.Fatalf("status = %d/%d, bodies %s | %s", s1, s2, b1, b2)
	}
	e1, e2 := decodeSchedule(t, b1).Executed, decodeSchedule(t, b2).Executed
	if e1 == nil || e2 == nil {
		t.Fatal("pinned-seed submissions returned no execution report")
	}
	if e1.Makespan != e2.Makespan || e1.Crashes != e2.Crashes || e1.Retries != e2.Retries {
		t.Errorf("pinned seed not reproducible: %+v vs %+v", e1, e2)
	}
	if e1.Crashes != 1 {
		t.Errorf("crashes = %d, want 1 (crash=0@1.5 in a longer run)", e1.Crashes)
	}
}

// TestOverloadShedsWith429 fills the single worker and the queue, then
// verifies the next submission is shed immediately with 429 and a
// Retry-After hint while the admitted jobs still complete.
func TestOverloadShedsWith429(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg := Config{Workers: 1, QueueCap: 1, testHook: func(j *job) {
		entered <- struct{}{}
		<-release
	}}
	e := newTestServer(t, cfg)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	bodyA := textBody("a", 4)
	chA := e.submitAsync("", bodyA)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first job")
	}
	chB := e.submitAsync("", bodyA)
	waitFor(t, "queued job", func() bool { return len(e.s.queue) == 1 })

	// Worker busy, queue full: the third submission must be shed now.
	status, b := e.submit(t, "", bodyA)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429 (body %s)", status, b)
	}
	resp, err := e.ts.Client().Post(e.ts.URL+"/schedule", "text/plain", strings.NewReader(bodyA))
	if err != nil {
		t.Fatalf("overload repeat: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload repeat status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carried no Retry-After header")
	}

	close(release)
	for _, ch := range []<-chan asyncResult{chA, chB} {
		select {
		case r := <-ch:
			if r.err != nil || r.status != 200 {
				t.Errorf("admitted job: status %d err %v", r.status, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("admitted job never completed after release")
		}
	}
	snap := e.metrics(t)
	if snap.Service.ShedQueueFull != 2 {
		t.Errorf("shed_queue_full = %d, want 2", snap.Service.ShedQueueFull)
	}
	if snap.Service.OK != 2 {
		t.Errorf("ok = %d, want 2", snap.Service.OK)
	}
}

// TestDeadlineExpiredInQueue holds the worker so a tightly-budgeted job
// outlives its deadline while queued; it must be shed 503 without running.
func TestDeadlineExpiredInQueue(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg := Config{Workers: 1, QueueCap: 4, testHook: func(j *job) {
		entered <- struct{}{}
		<-release
	}}
	e := newTestServer(t, cfg)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	chA := e.submitAsync("", textBody("a", 4))
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the blocker job")
	}
	chB := e.submitAsync("?timeout=30ms", textBody("b", 4))
	waitFor(t, "queued job", func() bool { return len(e.s.queue) == 1 })
	time.Sleep(80 * time.Millisecond) // let B's deadline lapse while queued
	close(release)

	rB := <-chB
	if rB.err != nil {
		t.Fatalf("deadline job transport error: %v", rB.err)
	}
	if rB.status != http.StatusServiceUnavailable {
		t.Fatalf("deadline job status = %d, want 503 (body %s)", rB.status, rB.body)
	}
	if !strings.Contains(string(rB.body), "deadline expired while queued") {
		t.Errorf("deadline body = %s, want queue-shed message", rB.body)
	}
	if rB.retryAfter == "" {
		t.Error("deadline shed carried no Retry-After header")
	}
	if rA := <-chA; rA.err != nil || rA.status != 200 {
		t.Errorf("blocker job: status %d err %v", rA.status, rA.err)
	}
	if n := e.s.nShedDeadline.Load(); n != 1 {
		t.Errorf("shed_deadline = %d, want 1", n)
	}
}

// TestClientGoneMidRunIsCounted holds an execute=1 job in the test hook,
// cancels its client, then releases it: Execute sees the canceled context
// and the job answers 503 "canceled". /metrics must still account for the
// request in one outcome counter, shed_deadline_503.
func TestClientGoneMidRunIsCounted(t *testing.T) {
	held := make(chan *job, 1)
	release := make(chan struct{})
	cfg := Config{Workers: 1, QueueCap: 4, testHook: func(j *job) {
		held <- j
		<-release
	}}
	e := newTestServer(t, cfg)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+"/schedule?execute=1", strings.NewReader(textBody("gone", 4)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := e.ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	var j *job
	select {
	case j = <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled client still got a response")
	}
	select {
	case <-j.ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job context still live after its client left")
	}
	close(release)
	waitFor(t, "the job to finish", func() bool { return e.s.inflight.Load() == 0 })

	sv := e.metrics(t).Service
	outcomes := sv.OK + sv.BadRequest + sv.TooLarge + sv.ShedQueueFull + sv.ShedDeadline + sv.Unavailable + sv.Internal
	if sv.Requests != 1 || outcomes != sv.Requests {
		t.Errorf("requests = %d, outcome counters sum to %d (%+v), want 1 and 1", sv.Requests, outcomes, sv)
	}
	if sv.ShedDeadline != 1 {
		t.Errorf("shed_deadline = %d, want 1", sv.ShedDeadline)
	}
}

// TestPanicIsolation panics inside one job and verifies the request gets
// a 500 while the daemon and its worker keep serving.
func TestPanicIsolation(t *testing.T) {
	cfg := Config{Workers: 1, QueueCap: 4, testHook: func(j *job) {
		if j.g.Name == "boom" {
			panic("injected test panic")
		}
	}}
	e := newTestServer(t, cfg)

	status, b := e.submit(t, "", textBody("boom", 4))
	if status != 500 {
		t.Fatalf("panicking job status = %d, want 500 (body %s)", status, b)
	}
	if !strings.Contains(string(b), "panic in job") {
		t.Errorf("panic body = %s, want panic message", b)
	}
	// The same worker must still serve the next submission.
	status2, b2 := e.submit(t, "", textBody("fine", 4))
	if status2 != 200 {
		t.Fatalf("post-panic job status = %d, want 200 (body %s)", status2, b2)
	}
	if hs, _ := e.get(t, "/healthz"); hs != 200 {
		t.Errorf("healthz after panic = %d, want 200", hs)
	}
	snap := e.metrics(t)
	if snap.Service.Panics != 1 {
		t.Errorf("panics = %d, want 1", snap.Service.Panics)
	}
}

// TestDrainFinishesInflight verifies the drain state machine: draining
// rejects new submissions 503 and flips readyz, in-flight jobs finish,
// and Drain returns once the pool is idle.
func TestDrainFinishesInflight(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg := Config{Workers: 1, QueueCap: 4, testHook: func(j *job) {
		entered <- struct{}{}
		<-release
	}}
	e := newTestServer(t, cfg)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	chA := e.submitAsync("", textBody("a", 4))
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the in-flight job")
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- e.s.Drain(ctx)
	}()
	waitFor(t, "draining state", func() bool { return e.s.Draining() })

	if status, _ := e.get(t, "/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", status)
	}
	if status, _ := e.get(t, "/healthz"); status != 200 {
		t.Errorf("healthz while draining = %d, want 200", status)
	}
	status, b := e.submit(t, "", textBody("late", 4))
	if status != http.StatusServiceUnavailable {
		t.Errorf("submission while draining = %d, want 503 (body %s)", status, b)
	}
	if !strings.Contains(string(b), "draining") {
		t.Errorf("draining body = %s, want drain message", b)
	}

	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v before the in-flight job finished", err)
	default:
	}
	close(release)
	if rA := <-chA; rA.err != nil || rA.status != 200 {
		t.Errorf("in-flight job during drain: status %d err %v", rA.status, rA.err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	snap := e.metrics(t)
	if snap.Service.State != "stopped" {
		t.Errorf("state after drain = %q, want stopped", snap.Service.State)
	}
	if snap.Service.Unavailable != 1 {
		t.Errorf("unavailable = %d, want 1", snap.Service.Unavailable)
	}
}

// TestParseHardening drives malformed, oversized and out-of-range
// submissions through the handler and asserts each fails with the right
// 4xx — never a 500 — under limits shared with the parsers.
func TestParseHardening(t *testing.T) {
	cfg := Config{Workers: 1, QueueCap: 4, MaxTasks: 8, MaxEdges: 8, MaxBodyBytes: 2048, MaxProcs: 16}
	e := newTestServer(t, cfg)

	okBody := textBody("ok", 4)
	cases := []struct {
		name   string
		query  string
		body   string
		want   int
		substr string
	}{
		{"within limits", "", okBody, 200, ""},
		{"too many tasks text", "", textBody("big", 9), 413, "exceeds limit"},
		{"too many tasks stg header", "?format=stg", "999999\n", 413, "exceeds limit"},
		{"too many edges", "", textBody("e", 8) + "edge 0 2 1\nedge 0 3 1\nedge 0 4 1\nedge 0 5 1\nedge 0 6 1\n", 413, "exceeds limit"},
		{"body over byte cap", "", okBody + "# " + strings.Repeat("x", 4096) + "\n", 413, "exceeds 2048 bytes"},
		{"byte cap inside a task line", "", cutAt("graph g\n", "task 0 1\n", 3), 413, "exceeds 2048 bytes"},
		{"byte cap inside an edge line", "", cutAt("task 0 1\ntask 1 2\n", "edge 0 1 1\n", 6), 413, "exceeds 2048 bytes"},
		{"byte cap inside an stg task line", "?format=stg", cutAt("2\n0 1 0\n", "1 2 1 0 1\n", 3), 413, "exceeds 2048 bytes"},
		{"malformed task line", "", "graph g\ntask zero 1\n", 400, "bad task id"},
		{"unknown directive", "", "graph g\nnode 0 1\n", 400, "unknown directive"},
		{"malformed stg", "?format=stg", "2\n0 1 0\n1 x 0\n", 400, "bad processing time"},
		{"empty body", "", "", 400, "no tasks"},
		{"bad procs", "?procs=0", okBody, 400, "bad procs"},
		{"procs over cap", "?procs=99", okBody, 400, "exceeds limit"},
		{"unknown algo", "?algo=nope", okBody, 400, "unknown algorithm"},
		{"bad seed", "?seed=abc", okBody, 400, "bad seed"},
		{"bad jitter", "?jitter=1.5", okBody, 400, "bad jitter"},
		{"bad crash syntax", "?crash=zero", okBody, 400, "bad crash"},
		{"crash proc out of range", "?procs=4&crash=9@1", okBody, 400, "proc must be in"},
		{"valid speeds", "?procs=4&speeds=2,1,1,1", okBody, 200, ""},
		{"short speeds padded", "?procs=4&speeds=2", okBody, 200, ""},
		{"too many speeds", "?procs=2&speeds=1,2,3", okBody, 400, "bad speeds"},
		{"non-numeric speed", "?procs=2&speeds=2,fast", okBody, 400, "bad speeds"},
		{"zero speed", "?procs=2&speeds=0,1", okBody, 400, "must be a finite"},
		{"negative speed", "?procs=2&speeds=-1,1", okBody, 400, "must be a finite"},
		{"NaN speed", "?procs=2&speeds=NaN,1", okBody, 400, "must be a finite"},
		{"infinite speed", "?procs=2&speeds=+Inf,1", okBody, 400, "must be a finite"},
	}
	var want4xx, want413, wantOK int64
	for _, tc := range cases {
		status, b := e.submit(t, tc.query, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, status, tc.want, b)
			continue
		}
		if tc.substr != "" && !strings.Contains(string(b), tc.substr) {
			t.Errorf("%s: body %s missing %q", tc.name, b, tc.substr)
		}
		switch {
		case tc.want == 200:
			wantOK++
		case tc.want == 413:
			want413++
		default:
			want4xx++
		}
	}
	snap := e.metrics(t)
	if snap.Service.TooLarge != want413 {
		t.Errorf("too_large = %d, want %d", snap.Service.TooLarge, want413)
	}
	if snap.Service.BadRequest != want4xx {
		t.Errorf("bad_request = %d, want %d", snap.Service.BadRequest, want4xx)
	}
	if snap.Service.OK != wantOK {
		t.Errorf("ok = %d, want %d", snap.Service.OK, wantOK)
	}
	if snap.Service.Internal != 0 || snap.Service.Panics != 0 {
		t.Errorf("internal/panics = %d/%d, want 0/0: hardening must not 5xx",
			snap.Service.Internal, snap.Service.Panics)
	}
	// The /metrics document reports the enforced (normalized) limits.
	if snap.Service.MaxTasks != 8 || snap.Service.MaxEdges != 8 || snap.Service.MaxBodyBytes != 2048 {
		t.Errorf("reported limits = %d/%d/%d, want 8/8/2048",
			snap.Service.MaxTasks, snap.Service.MaxEdges, snap.Service.MaxBodyBytes)
	}
}

func TestTimeoutCappedByMax(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: time.Second, MaxTimeout: 2 * time.Second})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	req := httptest.NewRequest("POST", "/schedule?timeout=1h", nil)
	if d := s.timeoutFor(req); d != 2*time.Second {
		t.Errorf("timeoutFor(1h) = %v, want capped 2s", d)
	}
	req = httptest.NewRequest("POST", "/schedule", nil)
	if d := s.timeoutFor(req); d != time.Second {
		t.Errorf("timeoutFor(default) = %v, want 1s", d)
	}
	req = httptest.NewRequest("POST", "/schedule?timeout=banana", nil)
	if d := s.timeoutFor(req); d != time.Second {
		t.Errorf("timeoutFor(garbage) = %v, want default 1s", d)
	}
}

// waitFor polls cond until it holds or the deadline strikes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
