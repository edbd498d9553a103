package svc

import (
	"time"

	"flb/internal/obs"
	"flb/internal/stats"
)

// reservoir keeps the last cap observations in a ring so /metrics can
// report recent latency quantiles without unbounded growth. Guarded by
// Server.mu.
type reservoir struct {
	buf   []float64
	next  int
	count int64
}

func newReservoir(cap int) *reservoir {
	return &reservoir{buf: make([]float64, 0, cap)}
}

func (r *reservoir) add(v float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % len(r.buf)
	}
	r.count++
}

// quantiles summarizes the reservoir's current window; Count is the
// lifetime count of observations, not the window's.
func (r *reservoir) quantiles() Quantiles {
	q := stats.QuantilesOf(append([]float64(nil), r.buf...))
	q.Count = r.count
	return q
}

// Quantiles is a latency summary in milliseconds over the recent window.
type Quantiles = stats.Quantiles

// Snapshot is the /metrics document: service health and shed counters,
// the aggregated scheduler/executor metrics of internal/obs, and the
// schedule-cache counters.
type Snapshot struct {
	Service ServiceStats `json:"service"`
	Sched   SchedStats   `json:"sched"`
	Cache   *CacheStats  `json:"cache,omitempty"`
}

// ServiceStats reports admission, shedding and latency state.
type ServiceStats struct {
	State      string  `json:"state"`
	UptimeSec  float64 `json:"uptime_sec"`
	Workers    int     `json:"workers"`
	QueueCap   int     `json:"queue_cap"`
	QueueDepth int     `json:"queue_depth"`
	Inflight   int64   `json:"inflight"`

	// Requests counts /schedule submissions; each ends in exactly one of
	// the outcome counters after it (Panics ticks inside Internal).
	// ShedDeadline counts the 503s of jobs whose context ended first:
	// deadline lapsed or client gone while queued, or canceled mid-run.
	Requests      int64 `json:"requests"`
	OK            int64 `json:"ok_2xx"`
	BadRequest    int64 `json:"bad_request_4xx"`
	TooLarge      int64 `json:"too_large_413"`
	ShedQueueFull int64 `json:"shed_queue_full_429"`
	ShedDeadline  int64 `json:"shed_deadline_503"`
	Unavailable   int64 `json:"unavailable_503"`
	Panics        int64 `json:"panics_500"`
	Internal      int64 `json:"internal_5xx"`

	RetryAfterSec int `json:"retry_after_sec"`

	MaxBodyBytes int64 `json:"max_body_bytes"`
	MaxTasks     int   `json:"max_tasks"`
	MaxEdges     int   `json:"max_edges"`

	LatencyMs   Quantiles `json:"latency_ms"`
	QueueWaitMs Quantiles `json:"queue_wait_ms"`
}

// SchedStats is the service-lifetime aggregation of the observed
// scheduling and execution event streams: each worker counts one job
// into its own obs.Metrics, and add folds that into these totals.
type SchedStats struct {
	ScheduleRuns int `json:"schedule_runs"`
	ExecRuns     int `json:"exec_runs"`
	Steps        int `json:"steps"`
	EPWins       int `json:"ep_wins"`
	NonEPWins    int `json:"non_ep_wins"`
	Demotions    int `json:"demotions"`
	TasksRun     int `json:"tasks_run"`
	Messages     int `json:"messages"`
	Crashes      int `json:"crashes"`
	Repairs      int `json:"repairs"`
	Retries      int `json:"retries"`
}

// add folds one job's counters into the totals.
func (st *SchedStats) add(m *obs.Metrics) {
	st.ScheduleRuns += m.Runs[obs.KindSchedule]
	st.ExecRuns += m.Runs[obs.KindSim]
	st.Steps += m.Steps
	st.EPWins += m.EPWins
	st.NonEPWins += m.NonEPWins
	st.Demotions += m.Demotions
	st.TasksRun += m.TasksRun
	st.Messages += m.Msgs
	st.Crashes += m.Crashes
	st.Repairs += m.Repairs
	st.Retries += m.Retries
}

// CacheStats mirrors the memo cache counters (satellite of ROADMAP
// item 2: the service exposes gets/hits/evictions on /metrics).
type CacheStats struct {
	Gets      int64 `json:"gets"`
	Hits      int64 `json:"hits"`
	NearHits  int64 `json:"near_hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Len       int   `json:"len"`
	Cap       int   `json:"cap"`
}

// MetricsSnapshot assembles the /metrics document. Also the "flush"
// payload the daemon logs on graceful shutdown.
//
//flb:wallclock reads the uptime gauge against the service start time
func (s *Server) MetricsSnapshot() Snapshot {
	snap := Snapshot{
		Service: ServiceStats{
			State:         stateName(s.state.Load()),
			UptimeSec:     time.Since(s.start).Seconds(),
			Workers:       s.cfg.Workers,
			QueueCap:      cap(s.queue),
			QueueDepth:    len(s.queue),
			Inflight:      s.inflight.Load(),
			Requests:      s.nRequests.Load(),
			OK:            s.nOK.Load(),
			BadRequest:    s.nBadRequest.Load(),
			TooLarge:      s.nTooLarge.Load(),
			ShedQueueFull: s.nShedQueue.Load(),
			ShedDeadline:  s.nShedDeadline.Load(),
			Unavailable:   s.nUnavailable.Load(),
			Panics:        s.nPanics.Load(),
			Internal:      s.nInternal.Load(),
			RetryAfterSec: s.retryAfterSeconds(),
			MaxBodyBytes:  s.cfg.MaxBodyBytes,
			MaxTasks:      s.cfg.limits().Normalized().MaxTasks,
			MaxEdges:      s.cfg.limits().Normalized().MaxEdges,
		},
	}
	s.mu.Lock()
	snap.Service.LatencyMs = s.latMs.quantiles()
	snap.Service.QueueWaitMs = s.queueMs.quantiles()
	snap.Sched = s.sched
	s.mu.Unlock()
	if s.cache != nil {
		st := s.cache.Stats()
		snap.Cache = &CacheStats{
			Gets:      st.Gets,
			Hits:      st.Hits,
			NearHits:  st.NearHits,
			Misses:    st.Misses(),
			Puts:      st.Puts,
			Evictions: st.Evictions,
			Len:       s.cache.Len(),
			Cap:       s.cache.Cap(),
		}
	}
	return snap
}
