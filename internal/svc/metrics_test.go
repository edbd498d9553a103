package svc

import (
	"strings"
	"testing"

	"flb"
	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/obs"
	"flb/internal/sim"
	"flb/internal/workload"
)

// TestMetricsMatchOracle pins every /metrics counter of a request
// sequence — two workers, the cache on — against an oracle that runs the
// same jobs through the facade into one telemetry sink: each cold FLB
// run observed, each cache hit skipped as the server skips it, and every
// execution observed.
func TestMetricsMatchOracle(t *testing.T) {
	const base = 11
	cfg := Config{Workers: 2, QueueCap: 8, CacheCap: -1, BaseSeed: base}
	e := newTestServer(t, cfg)

	body := func(family string) string {
		g, err := workload.Instance(family, 120, 1, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		return g.TextString()
	}
	lu, stencil, laplace := body("lu"), body("stencil"), body("laplace")
	type request struct {
		query, body string
		cached      bool // the oracle's own cache must agree
		algo        string
		seed        int64 // scheduling and execution seed when set
		speeds      []float64
		execute     bool
		jitter      float64
		crashes     []fault.Crash
	}
	reqs := []request{
		{query: "?procs=4", body: lu},
		{query: "?procs=4", body: lu, cached: true},
		{query: "?procs=4&execute=1", body: lu, cached: true, execute: true},
		{query: "?procs=4&algo=mcp&execute=1", body: stencil, algo: "mcp", execute: true},
		{query: "?procs=4&crash=0@1", body: stencil, execute: true, crashes: []fault.Crash{{Proc: 0, Time: 1}}},
		{query: "?procs=4&jitter=0.2&seed=5", body: laplace, seed: 5, execute: true, jitter: 0.2},
		{query: "?procs=4&speeds=2,1,1,1", body: lu, speeds: []float64{2, 1, 1, 1}},
	}

	tel := flb.NewTelemetry()
	cache := flb.NewScheduleCache(512)
	for i, r := range reqs {
		status, b := e.submit(t, r.query, r.body)
		if status != 200 {
			t.Fatalf("request %d (%s): status %d, body %s", i+1, r.query, status, b)
		}
		if got := decodeSchedule(t, b).Cached; got != r.cached {
			t.Errorf("request %d (%s): cached = %v, want %v", i+1, r.query, got, r.cached)
		}

		g, err := graph.ReadText(strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		seed, eseed := int64(base), sim.DeriveSeed(base, uint64(i+1))
		if r.seed != 0 {
			seed, eseed = r.seed, r.seed
		}
		sys := flb.WithSystem(flb.NewSystem(4, flb.WithSpeeds(r.speeds)))
		var s *flb.Schedule
		if r.algo != "" {
			s, err = flb.Run(g, sys, flb.WithAlgorithm(r.algo), flb.WithSeed(seed))
		} else {
			hits := cache.Stats().Hits
			s, err = flb.Run(g, sys, flb.WithSeed(seed), flb.WithCache(cache))
			if hit := cache.Stats().Hits > hits; hit != r.cached {
				t.Fatalf("request %d: oracle cache hit = %v, want %v", i+1, hit, r.cached)
			} else if !hit {
				// The server observes its cold runs only.
				_, err = flb.Run(g, sys, flb.WithObserver(tel))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.execute {
			if _, err := flb.Execute(s,
				flb.WithJitter(r.jitter, r.jitter),
				flb.WithFaults(flb.FaultPlan{Crashes: r.crashes}),
				flb.WithSeed(eseed),
				flb.WithObserver(tel)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tel.Crashes != 1 || tel.Repairs != 1 {
		t.Fatalf("oracle saw %d crashes and %d repairs; the sequence must exercise one of each", tel.Crashes, tel.Repairs)
	}

	snap := e.metrics(t)
	want := SchedStats{
		ScheduleRuns: tel.Runs[obs.KindSchedule],
		ExecRuns:     tel.Runs[obs.KindSim],
		Steps:        tel.Steps,
		EPWins:       tel.EPWins,
		NonEPWins:    tel.NonEPWins,
		Demotions:    tel.Demotions,
		TasksRun:     tel.TasksRun,
		Messages:     tel.Msgs,
		Crashes:      tel.Crashes,
		Repairs:      tel.Repairs,
		Retries:      tel.Retries,
	}
	if snap.Sched != want {
		t.Errorf("sched counters:\n got %+v\nwant %+v", snap.Sched, want)
	}
	cs := cache.Stats()
	wantCache := CacheStats{
		Gets: cs.Gets, Hits: cs.Hits, NearHits: cs.NearHits, Misses: cs.Misses(),
		Puts: cs.Puts, Evictions: cs.Evictions, Len: cache.Len(), Cap: cache.Cap(),
	}
	if snap.Cache == nil || *snap.Cache != wantCache {
		t.Errorf("cache counters:\n got %+v\nwant %+v", snap.Cache, wantCache)
	}
	n := int64(len(reqs))
	if snap.Service.LatencyMs.Count != n || snap.Service.QueueWaitMs.Count != n {
		t.Errorf("latency/queue-wait counts = %d/%d, want %d", snap.Service.LatencyMs.Count, snap.Service.QueueWaitMs.Count, n)
	}
}
