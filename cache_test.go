package flb_test

import (
	"strings"
	"sync"
	"testing"

	"flb"
)

// cacheGraph builds one frozen workload instance.
func cacheGraph(t testing.TB, fam string, v int, seed int64) *flb.Graph {
	t.Helper()
	g, err := flb.WorkloadInstance(fam, v, 1.0, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g
}

// TestRunCachedVsCold: with a cache attached, both the filling run and
// the hitting run return bytes identical to the uncached run — the
// serial half of the cached-vs-cold determinism contract.
func TestRunCachedVsCold(t *testing.T) {
	g := cacheGraph(t, "lu", 100, 1)
	cold, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)))
	if err != nil {
		t.Fatal(err)
	}
	want := scheduleBytes(t, cold)
	c := flb.NewScheduleCache(8)
	for _, pass := range []string{"fill", "hit"} {
		s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c))
		if err != nil {
			t.Fatalf("%s pass: %v", pass, err)
		}
		if scheduleBytes(t, s) != want {
			t.Errorf("%s pass differs from the uncached run", pass)
		}
	}
	st := c.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 2 gets, 1 hit, 1 put", st)
	}
}

// TestRunBatchCachedVsCold extends the serial-vs-pooled diff tests to
// cached-vs-cold: at every worker count and machine size, a batch over a
// shared cache — cold pass and fully warm pass — is byte-identical to the
// uncached serial loop.
func TestRunBatchCachedVsCold(t *testing.T) {
	gs := batchGraphs(t)
	for _, p := range []int{2, 4, 8, 16} {
		sys := flb.WithSystem(flb.NewSystem(p))
		want := make([]string, len(gs))
		for i, g := range gs {
			s, err := flb.Run(g, sys)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = scheduleBytes(t, s)
		}
		for _, w := range batchWorkerCounts {
			c := flb.NewScheduleCache(2 * len(gs))
			for pass := 0; pass < 2; pass++ {
				got, err := flb.RunBatch(gs, sys, flb.WithWorkers(w), flb.WithCache(c))
				if err != nil {
					t.Fatalf("P=%d workers=%d pass %d: %v", p, w, pass, err)
				}
				for i := range got {
					if scheduleBytes(t, got[i]) != want[i] {
						t.Errorf("P=%d workers=%d pass %d: schedule %d differs from uncached serial", p, w, pass, i)
					}
				}
			}
			st := c.Stats()
			if st.Puts != int64(len(gs)) {
				t.Errorf("P=%d workers=%d: %d inserts, want %d", p, w, st.Puts, len(gs))
			}
			if st.Hits != int64(len(gs)) {
				t.Errorf("P=%d workers=%d: warm pass hit %d of %d", p, w, st.Hits, len(gs))
			}
		}
	}
}

// TestRunBatchSharedCacheConcurrent resubmits one problem many times in a
// single batch: racing misses must converge on one entry and identical
// outputs. Run with -race in CI.
func TestRunBatchSharedCacheConcurrent(t *testing.T) {
	g := cacheGraph(t, "stencil", 80, 2)
	gs := make([]*flb.Graph, 32)
	for i := range gs {
		gs[i] = g
	}
	cold, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)))
	if err != nil {
		t.Fatal(err)
	}
	want := scheduleBytes(t, cold)
	for _, w := range []int{2, 8} {
		c := flb.NewScheduleCache(8)
		got, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithWorkers(w), flb.WithCache(c))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if scheduleBytes(t, got[i]) != want {
				t.Errorf("workers=%d: repeated job %d differs", w, i)
			}
		}
		if c.Len() != 1 {
			t.Errorf("workers=%d: %d entries for one distinct problem, want 1", w, c.Len())
		}
	}
	// A second batch over a warm cache answers every job from the exact
	// tier.
	c := flb.NewScheduleCache(8)
	if _, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithWorkers(8), flb.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if _, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithWorkers(8), flb.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits-before.Hits != int64(len(gs)) {
		t.Errorf("warm batch hit %d of %d", st.Hits-before.Hits, len(gs))
	}
}

// TestRunNearHitTier: through the facade, a trailing-weight drift on a
// cached problem is answered by the near-hit tier — valid, labeled, and
// byte-stable across repeated lookups (deterministic, though not the cold
// schedule; see DESIGN.md §13).
func TestRunNearHitTier(t *testing.T) {
	g := cacheGraph(t, "lu", 100, 3)
	c := flb.NewScheduleCache(8)
	c.EnableNearHit(true)
	base, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	// Drift the computation weights of the last quarter of the placement
	// order.
	order := base.PlacementOrder()
	drifted := g.Clone()
	for _, tk := range order[len(order)-len(order)/4:] {
		drifted.SetComp(tk, g.Comp(tk)*1.2)
	}
	drifted.Freeze()
	s1, err := flb.Run(drifted, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Algorithm != "flb-nearhit" {
		t.Fatalf("drifted resubmission labeled %q, want flb-nearhit", s1.Algorithm)
	}
	if err := s1.Validate(); err != nil {
		t.Fatalf("near hit does not validate: %v", err)
	}
	s2, err := flb.Run(drifted, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if scheduleBytes(t, s1) != scheduleBytes(t, s2) {
		t.Errorf("near hit is not byte-stable across lookups")
	}
	if st := c.Stats(); st.NearHits != 2 {
		t.Errorf("stats = %+v, want 2 near hits", st)
	}
}

// TestCacheObserverContract: observed runs bypass lookups (the observer
// gets the cold decision stream) but insert, and the observer receives
// cumulative CacheStats snapshots — surfaced by Telemetry's Cache field.
func TestCacheObserverContract(t *testing.T) {
	g := cacheGraph(t, "laplace", 90, 4)
	c := flb.NewScheduleCache(8)
	m := flb.NewTelemetry()
	if _, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c), flb.WithObserver(m)); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Puts != 1 || m.Cache.Gets != 0 {
		t.Fatalf("observed run snapshot = %+v, want 1 put and 0 gets (lookup bypassed)", m.Cache)
	}
	// The observed run's decision stream is the cold stream even on a
	// warm cache: a second observed run emits scheduling steps again.
	rec := flb.NewRecorder()
	if _, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c), flb.WithObserver(rec)); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Errorf("observed run on a warm cache emitted no events")
	}
	// Unobserved runs hit; the next observed run's snapshot shows them.
	if _, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	if _, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c), flb.WithObserver(m)); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits != 1 || m.Cache.Puts != 1 {
		t.Errorf("cumulative snapshot = %+v, want 1 hit and 1 put", m.Cache)
	}
	if m.Cache.Len != 1 || m.Cache.Cap != 8 {
		t.Errorf("snapshot len/cap = %d/%d, want 1/8", m.Cache.Len, m.Cache.Cap)
	}
	if want := int64(16 * g.NumTasks()); m.Cache.Bytes != want || c.Bytes() != want {
		t.Errorf("snapshot bytes %d, cache bytes %d, want one 16-byte step per task: %d", m.Cache.Bytes, c.Bytes(), want)
	}
	// Batch: one snapshot after the batch, cumulative.
	gs := []*flb.Graph{g, cacheGraph(t, "laplace", 90, 5)}
	m2 := flb.NewTelemetry()
	c2 := flb.NewScheduleCache(8)
	if _, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c2), flb.WithObserver(m2), flb.WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	if m2.Cache.Puts != int64(len(gs)) {
		t.Errorf("batch snapshot = %+v, want %d puts", m2.Cache, len(gs))
	}
}

// TestCacheIgnoredOffFLBPath: WithCache is an FLB-path knob; registry
// algorithms schedule uncached.
func TestCacheIgnoredOffFLBPath(t *testing.T) {
	g := cacheGraph(t, "lu", 80, 6)
	c := flb.NewScheduleCache(4)
	if _, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithAlgorithm("mcp"), flb.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	if _, err := flb.RunBatch([]*flb.Graph{g}, flb.WithSystem(flb.NewSystem(8)), flb.WithAlgorithm("mcp"), flb.WithCache(c)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Gets != 0 || st.Puts != 0 || c.Len() != 0 {
		t.Errorf("mcp runs touched the cache: %+v, len %d", st, c.Len())
	}
}

// TestCacheSharedAcrossSerialAndBatch: one cache serves Run and RunBatch
// interchangeably — a serial fill answers batch jobs and vice versa.
func TestCacheSharedAcrossSerialAndBatch(t *testing.T) {
	gs := []*flb.Graph{cacheGraph(t, "lu", 80, 7), cacheGraph(t, "stencil", 80, 8)}
	c := flb.NewScheduleCache(8)
	var want []string
	for _, g := range gs {
		s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, scheduleBytes(t, s))
	}
	got, err := flb.RunBatch(gs, flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c), flb.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if scheduleBytes(t, got[i]) != want[i] {
			t.Errorf("batch job %d differs from the serial fill", i)
		}
	}
	if st := c.Stats(); st.Hits != int64(len(gs)) {
		t.Errorf("batch over a serial-filled cache hit %d of %d", st.Hits, len(gs))
	}
}

// TestCacheConcurrentFacadeUse drives one cache from concurrent Run
// callers — the documented "any number of concurrent calls" contract.
// Run with -race in CI.
func TestCacheConcurrentFacadeUse(t *testing.T) {
	gs := []*flb.Graph{
		cacheGraph(t, "lu", 80, 9),
		cacheGraph(t, "laplace", 80, 10),
		cacheGraph(t, "stencil", 80, 11),
	}
	want := make([]string, len(gs))
	for i, g := range gs {
		s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(8)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = scheduleBytes(t, s)
	}
	c := flb.NewScheduleCache(2) // undersized: exercise concurrent eviction
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := (w + i) % len(gs)
				s, err := flb.Run(gs[j], flb.WithSystem(flb.NewSystem(8)), flb.WithCache(c))
				if err != nil {
					errs <- err.Error()
					return
				}
				var b strings.Builder
				if err := s.WriteJSON(&b); err != nil {
					errs <- err.Error()
					return
				}
				if b.String() != want[j] {
					errs <- "concurrent cached Run differs from cold run"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
