package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"flb/internal/algo/registry"
	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/schedule"
)

// scheduleResponse is the JSON answer of a successful submission.
type scheduleResponse struct {
	ID        uint64  `json:"id"`
	Graph     string  `json:"graph,omitempty"`
	Tasks     int     `json:"tasks"`
	Edges     int     `json:"edges"`
	Procs     int     `json:"procs"`
	Algorithm string  `json:"algorithm"`
	Seed      int64   `json:"seed"`
	Makespan  float64 `json:"makespan"`
	Cached    bool    `json:"cached"`
	QueueMs   float64 `json:"queue_ms"`
	RunMs     float64 `json:"run_ms"`

	// Assignments is the per-task placement, only with ?full=1.
	Assignments []taskAssignment `json:"assignments,omitempty"`
	// Executed reports the self-timed execution, only with ?execute=1.
	Executed *executeResponse `json:"executed,omitempty"`
}

type taskAssignment struct {
	Task   int     `json:"task"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

type executeResponse struct {
	Makespan    float64 `json:"makespan"`
	Crashes     int     `json:"crashes"`
	Survivors   int     `json:"survivors"`
	Reschedules int     `json:"reschedules"`
	Recomputed  int     `json:"recomputed"`
	Retries     int     `json:"retries"`
	Seed        int64   `json:"seed"`
}

// newScheduleResponse summarizes a finished schedule. It reads the
// schedule fully here — the FLB path hands in the worker's arena-owned
// schedule, valid only until that worker's next job.
func newScheduleResponse(j *job, out *schedule.Schedule, cached bool) *scheduleResponse {
	algo := j.algo
	if algo == "" {
		algo = "flb"
	}
	resp := &scheduleResponse{
		ID:        j.id,
		Graph:     j.g.Name,
		Tasks:     j.g.NumTasks(),
		Edges:     j.g.NumEdges(),
		Procs:     j.sys.P,
		Algorithm: algo,
		Seed:      j.seed,
		Makespan:  out.Makespan(),
		Cached:    cached,
	}
	if j.full {
		resp.Assignments = make([]taskAssignment, j.g.NumTasks())
		for t := 0; t < j.g.NumTasks(); t++ {
			resp.Assignments[t] = taskAssignment{
				Task:   t,
				Proc:   int(out.Proc(t)),
				Start:  out.Start(t),
				Finish: out.Finish(t),
			}
		}
	}
	return resp
}

// Handler returns the service's HTTP surface:
//
//	POST /schedule  submit a graph (text or STG body; see query params)
//	GET  /metrics   service + scheduler + cache counters as JSON
//	GET  /healthz   process liveness (always 200 while serving)
//	GET  /readyz    admission readiness (503 once draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /schedule", s.handleSchedule)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) countStatus(status int) {
	switch {
	case status >= 200 && status < 300:
		s.nOK.Add(1)
	case status == http.StatusRequestEntityTooLarge:
		s.nTooLarge.Add(1)
	case status == http.StatusTooManyRequests:
		// counted at the shed site
	case status == http.StatusServiceUnavailable:
		// counted at the shed/drain site
	case status >= 400 && status < 500:
		s.nBadRequest.Add(1)
	default:
		s.nInternal.Add(1)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	s.countStatus(status)
	writeJSON(w, status, errorResponse{Error: msg}, retryAfter)
}

// retryAfterSeconds estimates when shedding will likely stop: current
// queue depth times the smoothed per-job service time over the pool
// width, clamped to [1s, 30s].
func (s *Server) retryAfterSeconds() int {
	depth := len(s.queue)
	s.mu.Lock()
	per := s.ewmaJobSec
	s.mu.Unlock()
	if per <= 0 {
		per = 0.05 // no completed job yet: assume a cheap one
	}
	est := float64(depth+1) * per / float64(s.cfg.Workers)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// handleSchedule parses, validates and admits one submission, then
// waits for its result. Everything that can be rejected cheaply (bad
// parameters, malformed or oversized bodies) is rejected on the handler
// goroutine before admission control is consulted.
//
//flb:wallclock stamps the enqueue instant for the queue-wait metric
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.nRequests.Add(1)
	j, status, msg := s.parseSubmission(r)
	if j == nil {
		s.writeError(w, status, msg, 0)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(r))
	defer cancel()
	j.ctx = ctx
	j.enq = time.Now()

	// Admission control. The shared lock closes the race between
	// enqueueing and Drain closing the queue; the non-blocking send is
	// the admission decision itself.
	s.admit.RLock()
	if s.state.Load() != stateAccepting {
		s.admit.RUnlock()
		s.nUnavailable.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining: not accepting submissions", s.retryAfterSeconds())
		return
	}
	select {
	case s.queue <- j:
		s.inflight.Add(1)
		s.admit.RUnlock()
	default:
		s.admit.RUnlock()
		s.nShedQueue.Add(1)
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("admission queue full (%d waiting)", len(s.queue)), s.retryAfterSeconds())
		return
	}

	// The worker sends exactly one result (the channel holds one slot),
	// so waiting here never leaks even when the client is gone; the
	// job's context, derived from the request, makes the worker shed
	// abandoned work instead of running it.
	res := <-j.done
	s.countStatus(res.status)
	if res.resp != nil {
		writeJSON(w, res.status, res.resp, 0)
		return
	}
	writeJSON(w, res.status, errorResponse{Error: res.errMsg}, res.retryAfter)
}

// timeoutFor resolves the request's deadline budget: ?timeout capped by
// MaxTimeout, defaulting to DefaultTimeout.
func (s *Server) timeoutFor(r *http.Request) time.Duration {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		if p, err := time.ParseDuration(v); err == nil && p > 0 {
			d = p
		}
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// parseSubmission builds a job from the request, or returns the 4xx
// status and message rejecting it. The body is read under the shared
// size limits: MaxBytesReader bounds the raw bytes and graph.Limits
// bounds what the parser will materialize, so a hostile payload fails
// 413 before it costs memory.
func (s *Server) parseSubmission(r *http.Request) (*job, int, string) {
	q := r.URL.Query()
	j := &job{
		id:   s.reqID.Add(1),
		seed: s.cfg.BaseSeed,
		done: make(chan jobResult, 1),
	}

	procs := s.cfg.DefaultProcs
	if v := q.Get("procs"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			return nil, 400, fmt.Sprintf("bad procs %q: want an integer >= 1", v)
		}
		if p > s.cfg.MaxProcs {
			return nil, 400, fmt.Sprintf("procs %d exceeds limit %d", p, s.cfg.MaxProcs)
		}
		procs = p
	}
	j.sys = machine.NewSystem(procs)
	if v := q.Get("speeds"); v != "" {
		speeds, err := parseSpeeds(v, procs)
		if err != nil {
			return nil, 400, err.Error()
		}
		// CanonicalSpeeds collapses all-1.0 vectors to nil, so spelling
		// the homogeneous machine as ?speeds=1,1,... keeps its cache
		// fingerprint (and its warm entries).
		j.sys.Speeds = machine.CanonicalSpeeds(speeds)
	}

	if v := q.Get("algo"); v != "" && !strings.EqualFold(v, "flb") {
		if _, err := registry.New(v, 0); err != nil {
			return nil, 400, err.Error()
		}
		j.algo = v
	}
	j.eseed = s.deriveExecSeed(j.id)
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, 400, fmt.Sprintf("bad seed %q", v)
		}
		j.seed, j.eseed = n, n
	}
	j.full = boolParam(q.Get("full"))
	j.execute = boolParam(q.Get("execute"))
	if v := q.Get("jitter"); v != "" {
		var err error
		if j.epsComp, j.epsComm, err = parseJitter(v); err != nil {
			return nil, 400, err.Error()
		}
		j.execute = true
	}
	for _, v := range q["crash"] {
		c, err := parseCrash(v, procs)
		if err != nil {
			return nil, 400, err.Error()
		}
		j.crashes = append(j.crashes, c)
		j.execute = true
	}

	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	var g *graph.Graph
	var err error
	if formatOf(r) == "stg" {
		g, err = graph.ReadSTGLimits(body, s.cfg.limits())
	} else {
		g, err = graph.ReadTextLimits(body, s.cfg.limits())
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, 413, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)
		}
		if errors.Is(err, graph.ErrTooLarge) {
			return nil, 413, err.Error()
		}
		return nil, 400, err.Error()
	}
	if g.NumTasks() == 0 {
		// A task-free graph parses but cannot be scheduled; reject it at
		// the boundary instead of surfacing the scheduler's error as 500.
		return nil, 400, "graph has no tasks"
	}
	j.g = g
	return j, 0, ""
}

// formatOf resolves the payload format: ?format wins, then the content
// type, defaulting to the module's text format.
func formatOf(r *http.Request) string {
	if f := r.URL.Query().Get("format"); f != "" {
		return strings.ToLower(f)
	}
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "stg") {
		return "stg"
	}
	return "text"
}

func boolParam(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// parseJitter parses "epsComp,epsComm" (one value applies to both).
func parseJitter(v string) (float64, float64, error) {
	parts := strings.Split(v, ",")
	if len(parts) > 2 {
		return 0, 0, fmt.Errorf("bad jitter %q: want epsComp[,epsComm]", v)
	}
	eps := make([]float64, 0, 2)
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f < 0 || f >= 1 {
			return 0, 0, fmt.Errorf("bad jitter %q: want factors in [0, 1)", v)
		}
		eps = append(eps, f)
	}
	if len(eps) == 1 {
		return eps[0], eps[0], nil
	}
	return eps[0], eps[1], nil
}

// parseSpeeds parses the comma-separated per-processor speed vector of a
// uniformly related machine. Between 1 and procs entries are accepted —
// missing trailing processors run at speed 1 — and every entry must be a
// finite number > 0, so a hostile vector is a 400 at the boundary and
// never a scheduler 5xx.
func parseSpeeds(v string, procs int) ([]float64, error) {
	parts := strings.Split(v, ",")
	if len(parts) > procs {
		return nil, fmt.Errorf("bad speeds %q: %d entries for %d processors", v, len(parts), procs)
	}
	speeds := make([]float64, procs)
	for i := range speeds {
		speeds[i] = 1
	}
	for i, part := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			return nil, fmt.Errorf("bad speeds %q: entry %d must be a finite number > 0", v, i)
		}
		speeds[i] = f
	}
	return speeds, nil
}

// parseCrash parses "proc@time" into a fail-stop crash.
func parseCrash(v string, procs int) (fault.Crash, error) {
	proc, at, ok := strings.Cut(v, "@")
	if !ok {
		return fault.Crash{}, fmt.Errorf("bad crash %q: want proc@time", v)
	}
	p, err := strconv.Atoi(proc)
	if err != nil || p < 0 || p >= procs {
		return fault.Crash{}, fmt.Errorf("bad crash %q: proc must be in [0, %d)", v, procs)
	}
	t, err := strconv.ParseFloat(at, 64)
	if err != nil || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return fault.Crash{}, fmt.Errorf("bad crash %q: time must be a finite non-negative number", v)
	}
	return fault.Crash{Proc: machine.Proc(p), Time: t}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if st := s.state.Load(); st != stateAccepting {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, stateName(st))
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, 200, s.MetricsSnapshot(), 0)
}
