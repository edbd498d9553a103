package svc

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"flb"
	"flb/internal/fault"
	"flb/internal/graph"
	"flb/internal/obs"
	"flb/internal/schedule"
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
		Bytes: cache.Bytes(),
	}
	if snap.Cache == nil || *snap.Cache != wantCache {
		t.Errorf("cache counters:\n got %+v\nwant %+v", snap.Cache, wantCache)
	}
	n := int64(len(reqs))
	if snap.Service.LatencyMs.Count != n || snap.Service.QueueWaitMs.Count != n {
		t.Errorf("latency/queue-wait counts = %d/%d, want %d", snap.Service.LatencyMs.Count, snap.Service.QueueWaitMs.Count, n)
	}
}

// TestMetricsCacheSnapshotConsistent: /metrics reads the cache in one
// critical section, so every snapshot polled while submissions insert
// and evict concurrently has len == puts − evictions, and bytes equal to
// the records held: every problem here has the same task count, so each
// entry holds exactly one 16-byte step per task.
func TestMetricsCacheSnapshotConsistent(t *testing.T) {
	const v = 40
	e := newTestServer(t, Config{Workers: 2, QueueCap: 64, CacheCap: 4})
	body := textBody("chain", v)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				// Seven processor counts, seven problems: more than the
				// four entries, so inserts evict.
				query := fmt.Sprintf("?procs=%d", 2+(w*12+i)%7)
				resp, err := e.ts.Client().Post(e.ts.URL+"/schedule"+query, "text/plain", strings.NewReader(body))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("submit %s: status %d", query, resp.StatusCode)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	check := func(c *CacheStats) {
		t.Helper()
		if c == nil {
			t.Fatal("/metrics has no cache section")
		}
		if int64(c.Len) != c.Puts-c.Evictions {
			t.Errorf("snapshot len %d, puts %d, evictions %d: len != puts - evictions", c.Len, c.Puts, c.Evictions)
		}
		if want := int64(c.Len) * v * schedule.StepBytes; c.Bytes != want {
			t.Errorf("snapshot bytes %d for %d entries of %d tasks, want %d", c.Bytes, c.Len, v, want)
		}
	}
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		check(e.metrics(t).Cache)
	}
	final := e.metrics(t).Cache
	check(final)
	if final.Puts < 7 || final.Evictions == 0 {
		t.Errorf("final cache %+v: want every problem inserted and some evicted", final)
	}
}
