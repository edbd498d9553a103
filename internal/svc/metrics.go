package svc

import (
	"sort"
	"time"

	"flb/internal/obs"
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

// quantiles summarizes the reservoir's current window.
func (r *reservoir) quantiles() Quantiles {
	q := Quantiles{Count: r.count}
	if len(r.buf) == 0 {
		return q
	}
	s := append([]float64(nil), r.buf...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	at := func(p float64) float64 {
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	q.Mean = sum / float64(len(s))
	q.P50, q.P90, q.P99, q.Max = at(0.50), at(0.90), at(0.99), s[len(s)-1]
	return q
}

// Quantiles is a latency summary in milliseconds over the recent window.
type Quantiles struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

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
// scheduling and execution event streams (internal/obs.Metrics).
type SchedStats struct {
	ScheduleRuns int `json:"schedule_runs"`
	ExecRuns     int `json:"exec_runs"`
	RepairRuns   int `json:"repair_runs"`
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
			Workers:       s.eng.Workers(),
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
	snap.Sched = SchedStats{
		ScheduleRuns: s.met.Runs[obs.KindSchedule],
		ExecRuns:     s.met.Runs[obs.KindSim],
		RepairRuns:   s.met.Runs[obs.KindRepair],
		Steps:        s.met.Steps,
		EPWins:       s.met.EPWins,
		NonEPWins:    s.met.NonEPWins,
		Demotions:    s.met.Demotions,
		TasksRun:     s.met.TasksRun,
		Messages:     s.met.Msgs,
		Crashes:      s.met.Crashes,
		Repairs:      s.met.Repairs,
		Retries:      s.met.Retries,
	}
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
