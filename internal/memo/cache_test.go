package memo

import (
	"strings"
	"sync"
	"testing"

	"flb/internal/core"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/schedule"
	"flb/internal/workload"
)

func coldSchedule(t testing.TB, g *graph.Graph, sys machine.System) *schedule.Schedule {
	t.Helper()
	s, err := core.NewScheduler(core.FLB{}).Schedule(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func scheduleBytes(t testing.TB, s *schedule.Schedule) string {
	t.Helper()
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCacheCapClamp(t *testing.T) {
	for _, capacity := range []int{-3, 0, 1, 5} {
		c := NewCache(capacity)
		want := capacity
		if want < 1 {
			want = 1
		}
		if c.Cap() != want {
			t.Errorf("NewCache(%d).Cap() = %d, want %d", capacity, c.Cap(), want)
		}
		if c.Len() != 0 {
			t.Errorf("NewCache(%d).Len() = %d, want 0", capacity, c.Len())
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	sys := machine.NewSystem(3)
	gs := []*graph.Graph{memoGraph(1, 20), memoGraph(2, 20), memoGraph(3, 20)}
	keys := make([]Key, len(gs))
	c := NewCache(2)
	for i, g := range gs[:2] {
		keys[i] = KeyOf(g, sys, "flb", 1)
		c.Put(g, sys, keys[i], coldSchedule(t, g, sys))
	}
	// Touch g0 so g1 becomes least recently used, then insert g2.
	if _, ok := c.Get(gs[0], sys, keys[0], false); !ok {
		t.Fatal("expected hit on cached problem 0")
	}
	keys[2] = KeyOf(gs[2], sys, "flb", 1)
	c.Put(gs[2], sys, keys[2], coldSchedule(t, gs[2], sys))
	if c.Len() != 2 {
		t.Fatalf("Len = %d after inserting into a full cache, want 2", c.Len())
	}
	if _, ok := c.Get(gs[1], sys, keys[1], false); ok {
		t.Errorf("least recently used entry survived eviction")
	}
	if _, ok := c.Get(gs[0], sys, keys[0], false); !ok {
		t.Errorf("recently used entry was evicted")
	}
	if _, ok := c.Get(gs[2], sys, keys[2], false); !ok {
		t.Errorf("just-inserted entry missing")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestCacheStatsCounters(t *testing.T) {
	g := memoGraph(5, 25)
	sys := machine.NewSystem(3)
	key := KeyOf(g, sys, "flb", 1)
	c := NewCache(4)
	if _, ok := c.Get(g, sys, key, false); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(g, sys, key, coldSchedule(t, g, sys))
	c.Put(g, sys, key, coldSchedule(t, g, sys)) // same key: touch, not insert
	if _, ok := c.Get(g, sys, key, false); !ok {
		t.Fatal("miss on a cached problem")
	}
	st := c.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.NearHits != 0 || st.Puts != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 2 gets, 1 hit, 1 put", st)
	}
	if st.Misses() != 1 {
		t.Errorf("Misses() = %d, want 1", st.Misses())
	}
	if st.HitRate() != 50 {
		t.Errorf("HitRate() = %g, want 50", st.HitRate())
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after double Put of one key, want 1", c.Len())
	}
	ev := c.StatsEvent()
	if ev.Gets != 2 || ev.Hits != 1 || ev.Puts != 1 || ev.Len != 1 || ev.Cap != 4 {
		t.Errorf("StatsEvent = %+v, want gets 2, hits 1, puts 1, len 1, cap 4", ev)
	}
}

// hitSystems are the machines the byte-identity contract is pinned on:
// homogeneous cliques of several sizes, a two-speed related machine and a
// latency-bandwidth network.
func hitSystems() []struct {
	name string
	sys  machine.System
} {
	related := machine.NewSystem(8)
	related.Speeds = machine.CanonicalSpeeds([]float64{2, 2, 2, 2, 1, 1, 1, 1})
	lb := machine.NewSystem(8)
	lb.Comm = machine.LatencyBandwidth{Latency: 0.5, Bandwidth: 2}
	return []struct {
		name string
		sys  machine.System
	}{
		{"P=2", machine.NewSystem(2)},
		{"P=8", machine.NewSystem(8)},
		{"P=32", machine.NewSystem(32)},
		{"related", related},
		{"latency-bandwidth", lb},
	}
}

// TestCacheHitByteIdentity: on every machine of hitSystems a hit is
// byte-identical to the cold run and rebound to the caller's graph and
// system objects.
func TestCacheHitByteIdentity(t *testing.T) {
	g := memoGraph(6, 50)
	for _, tc := range hitSystems() {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys
			cold := coldSchedule(t, g, sys)
			want := scheduleBytes(t, cold)
			c := NewCache(4)
			key := KeyOf(g, sys, "flb", 1)
			c.Put(g, sys, key, cold)
			s, ok := c.Get(g, sys, key, false)
			if !ok {
				t.Fatal("exact resubmission missed")
			}
			if scheduleBytes(t, s) != want {
				t.Errorf("cache hit differs from the cold run")
			}
			// Look the problem up via a renamed clone: same fingerprint,
			// distinct object — the served schedule must be bound to the
			// clone, so its bytes equal a cold run on the clone (the name
			// rides along).
			r := g.Clone()
			r.Name = "resubmission"
			r.Freeze()
			s, ok = c.Get(r, sys, KeyOf(r, sys, "flb", 1), false)
			if !ok {
				t.Fatal("renamed resubmission missed")
			}
			if scheduleBytes(t, s) != scheduleBytes(t, coldSchedule(t, r, sys)) {
				t.Errorf("rebound cache hit differs from a cold run on the resubmission")
			}
			if s.Graph() != r {
				t.Errorf("hit is not rebound to the submitted graph")
			}
			if err := s.Validate(); err != nil {
				t.Errorf("hit does not validate: %v", err)
			}
		})
	}
}

// TestCacheMismatchedEntryMisses: an entry whose task count or P differs
// from the looked-up problem (a Full collision, forced here by reusing a
// key) answers a miss instead of a schedule for the wrong problem.
func TestCacheMismatchedEntryMisses(t *testing.T) {
	g := memoGraph(12, 30)
	sys := machine.NewSystem(4)
	key := KeyOf(g, sys, "flb", 1)
	c := NewCache(4)
	c.EnableNearHit(true)
	c.Put(g, sys, key, coldSchedule(t, g, sys))
	other := memoGraph(13, 31)
	if s, ok := c.Get(other, sys, key, true); ok || s != nil {
		t.Errorf("entry of %d tasks answered a %d-task lookup", g.NumTasks(), other.NumTasks())
	}
	if s, ok := c.Get(g, machine.NewSystem(5), key, true); ok || s != nil {
		t.Errorf("P=4 entry answered a P=5 lookup")
	}
	if st := c.Stats(); st.Gets != 2 || st.Hits != 0 || st.NearHits != 0 {
		t.Errorf("stats = %+v, want 2 gets and no hits", st)
	}
	if _, ok := c.Get(g, sys, key, false); !ok {
		t.Errorf("the matching problem missed")
	}
}

// TestCacheBytesPerEntry: with the near tier off an entry costs one
// 16-byte step per task, at most 20 B per task at V≈2000; with the tier
// on it adds the weight snapshot.
func TestCacheBytesPerEntry(t *testing.T) {
	g := luGraph(t)
	sys := machine.NewSystem(8)
	cold := coldSchedule(t, g, sys)
	key := KeyOf(g, sys, "flb", 1)
	c := NewCache(4)
	c.Put(g, sys, key, cold)
	n := int64(g.NumTasks())
	if got := c.Bytes(); got != n*schedule.StepBytes || got > 20*n {
		t.Errorf("near tier off: entry holds %d B for %d tasks, want %d (at most 20 B per task)", got, n, n*schedule.StepBytes)
	}
	if ev := c.StatsEvent(); ev.Bytes != c.Bytes() {
		t.Errorf("StatsEvent().Bytes = %d, Bytes() = %d", ev.Bytes, c.Bytes())
	}
	near := NewCache(4)
	near.EnableNearHit(true)
	near.Put(g, sys, key, cold)
	want := n*schedule.StepBytes + 8*(n+int64(g.NumEdges()))
	if got := near.Bytes(); got != want {
		t.Errorf("near tier on: entry holds %d B, want %d", got, want)
	}
}

// luGraph is the V≈2000 LU instance of the entry-size checks and the
// benchmarks.
func luGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := workload.Instance("lu", 2000, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	return g
}

// nearHitProblem caches g's schedule and returns a variant whose trailing
// (in placement order) tasks' computation weights drifted.
func nearHitProblem(t testing.TB, c *Cache, g *graph.Graph, sys machine.System) *graph.Graph {
	t.Helper()
	base := coldSchedule(t, g, sys)
	c.Put(g, sys, KeyOf(g, sys, "flb", 1), base)
	order := base.PlacementOrder()
	drifted := g.Clone()
	for _, tk := range order[len(order)-len(order)/4:] {
		drifted.SetComp(tk, g.Comp(tk)*1.25)
	}
	drifted.Freeze()
	return drifted
}

func TestCacheNearHit(t *testing.T) {
	g := memoGraph(7, 60)
	sys := machine.NewSystem(4)
	c := NewCache(4)
	c.EnableNearHit(true)
	drifted := nearHitProblem(t, c, g, sys)
	key := KeyOf(drifted, sys, "flb", 1)
	s, ok := c.Get(drifted, sys, key, true)
	if !ok {
		t.Fatal("near-hit tier did not answer a trailing-drift resubmission")
	}
	if s.Algorithm != "flb-nearhit" {
		t.Errorf("near hit labeled %q, want flb-nearhit", s.Algorithm)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("near hit does not validate: %v", err)
	}
	if s.Graph() != drifted {
		t.Errorf("near hit is not bound to the submitted graph")
	}
	// Deterministic: the same lookup repairs to the same bytes.
	s2, ok := c.Get(drifted, sys, key, true)
	if !ok {
		t.Fatal("near hit not repeatable")
	}
	if scheduleBytes(t, s) != scheduleBytes(t, s2) {
		t.Errorf("repeated near hit differs")
	}
	st := c.Stats()
	if st.NearHits != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 near hits and 0 exact hits", st)
	}
	// Near results are never inserted: the drifted Full key still misses
	// the exact tier.
	if _, ok := c.Get(drifted, sys, key, false); ok {
		t.Errorf("near-hit result was inserted into the exact tier")
	}
}

func TestCacheNearHitGating(t *testing.T) {
	sys := machine.NewSystem(4)

	// Tier disabled: the drifted lookup misses.
	c := NewCache(4)
	g := memoGraph(8, 60)
	drifted := nearHitProblem(t, c, g, sys)
	if _, ok := c.Get(drifted, sys, KeyOf(drifted, sys, "flb", 1), true); ok {
		t.Errorf("near tier answered while disabled")
	}
	// Tier enabled but the caller forbids it (the batch path).
	c.EnableNearHit(true)
	if _, ok := c.Get(drifted, sys, KeyOf(drifted, sys, "flb", 1), false); ok {
		t.Errorf("near tier answered an allowNear=false lookup")
	}
	// A drift touching the first-placed task leaves no reusable prefix.
	c2 := NewCache(4)
	c2.EnableNearHit(true)
	g2 := memoGraph(9, 60)
	base := coldSchedule(t, g2, sys)
	c2.Put(g2, sys, KeyOf(g2, sys, "flb", 1), base)
	all := g2.Clone()
	for tk := 0; tk < all.NumTasks(); tk++ {
		all.SetComp(tk, g2.Comp(tk)*1.25)
	}
	all.Freeze()
	if _, ok := c2.Get(all, sys, KeyOf(all, sys, "flb", 1), true); ok {
		t.Errorf("near tier answered a drift with no reusable prefix")
	}
}

func TestCacheReset(t *testing.T) {
	g := memoGraph(10, 25)
	sys := machine.NewSystem(3)
	key := KeyOf(g, sys, "flb", 1)
	c := NewCache(2)
	c.Put(g, sys, key, coldSchedule(t, g, sys))
	c.Get(g, sys, key, false)
	c.Reset()
	if c.Len() != 0 {
		t.Errorf("Len = %d after Reset, want 0", c.Len())
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats = %+v after Reset, want zero", st)
	}
	if _, ok := c.Get(g, sys, key, false); ok {
		t.Errorf("hit after Reset")
	}
	// The cache is reusable after Reset.
	c.Put(g, sys, key, coldSchedule(t, g, sys))
	if _, ok := c.Get(g, sys, key, false); !ok {
		t.Errorf("miss after re-populating a Reset cache")
	}
}

// TestCacheConcurrentSharedUse hammers one cache from many goroutines —
// the batch engine's sharing pattern — and checks every hit stays
// byte-identical to the cold run. Run with -race in CI.
func TestCacheConcurrentSharedUse(t *testing.T) {
	sys := machine.NewSystem(4)
	const problems = 6
	gs := make([]*graph.Graph, problems)
	want := make([]string, problems)
	keys := make([]Key, problems)
	for i := range gs {
		gs[i] = memoGraph(int64(20+i), 40)
		want[i] = scheduleBytes(t, coldSchedule(t, gs[i], sys))
		keys[i] = KeyOf(gs[i], sys, "flb", 1)
	}
	c := NewCache(4) // smaller than the problem set: evictions under contention
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := core.NewScheduler(core.FLB{})
			for i := 0; i < 30; i++ {
				j := (w + i) % problems
				s, ok := c.Get(gs[j], sys, keys[j], false)
				if !ok {
					cold, err := sc.Schedule(gs[j], sys)
					if err != nil {
						errs <- err.Error()
						return
					}
					c.Put(gs[j], sys, keys[j], cold)
					continue
				}
				var b strings.Builder
				if err := s.WriteJSON(&b); err != nil {
					errs <- err.Error()
					return
				}
				if b.String() != want[j] {
					errs <- "concurrent hit differs from cold run"
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

// TestCacheNearTierSnapshotRule: Put takes the weight snapshot the near
// tier repairs from only while the tier is on. An entry inserted with the
// tier off is not repaired after the tier is switched on; one inserted
// with it on repairs to the same bytes as ReplanSuffix on the cold base.
func TestCacheNearTierSnapshotRule(t *testing.T) {
	sys := machine.NewSystem(4)
	g := memoGraph(14, 60)
	off := NewCache(4)
	drifted := nearHitProblem(t, off, g, sys)
	off.EnableNearHit(true)
	key := KeyOf(drifted, sys, "flb", 1)
	if _, ok := off.Get(drifted, sys, key, true); ok {
		t.Errorf("an entry inserted with the tier off was repaired")
	}
	if b := off.Bytes(); b != int64(g.NumTasks())*schedule.StepBytes {
		t.Errorf("tier off: cache holds %d B, want the record's %d B only", b, g.NumTasks()*schedule.StepBytes)
	}

	on := NewCache(4)
	on.EnableNearHit(true)
	nearHitProblem(t, on, g, sys)
	s, ok := on.Get(drifted, sys, key, true)
	if !ok {
		t.Fatal("an entry inserted with the tier on was not repaired")
	}
	var rec schedule.Record
	rec.Fill(coldSchedule(t, g, sys))
	n := g.NumTasks()
	want, err := core.NewRescheduler().ReplanSuffix(drifted, sys, &rec, n-n/4)
	if err != nil {
		t.Fatal(err)
	}
	if scheduleBytes(t, s) != scheduleBytes(t, want) {
		t.Errorf("near hit differs from ReplanSuffix on the cold base")
	}
}

// TestCachePutSteadyStateAllocs: once every entry's arenas are warm, a
// Put that evicts allocates nothing, with the near tier off or on.
func TestCachePutSteadyStateAllocs(t *testing.T) {
	sys := machine.NewSystem(4)
	base := memoGraph(15, 50)
	const problems = 6
	gs := make([]*graph.Graph, problems)
	ss := make([]*schedule.Schedule, problems)
	keys := make([]Key, problems)
	for i := range gs {
		g := base.Clone()
		g.SetComp(0, base.Comp(0)*float64(i+2))
		g.Freeze()
		gs[i], ss[i], keys[i] = g, coldSchedule(t, g, sys), KeyOf(g, sys, "flb", 1)
	}
	for _, near := range []bool{false, true} {
		c := NewCache(problems / 2) // every Put evicts
		c.EnableNearHit(near)
		i := 0
		put := func() {
			c.Put(gs[i%problems], sys, keys[i%problems], ss[i%problems])
			i++
		}
		for j := 0; j < 2*problems; j++ {
			put()
		}
		before := c.Stats().Evictions
		if avg := testing.AllocsPerRun(100, put); avg != 0 {
			t.Errorf("near=%v: warm Put allocates %.1f/run, want 0", near, avg)
		}
		if c.Stats().Evictions == before {
			t.Errorf("near=%v: the measured Puts evicted nothing", near)
		}
		// Every entry holds one problem's record (and snapshot), however
		// often its arena was refilled.
		n, e := int64(base.NumTasks()), int64(base.NumEdges())
		want := int64(c.Cap()) * n * schedule.StepBytes
		if near {
			want += int64(c.Cap()) * 8 * (n + e)
		}
		if got := c.Bytes(); got != want {
			t.Errorf("near=%v: %d entries hold %d B, want %d", near, c.Cap(), got, want)
		}
	}
}

// warmCache returns a 64-entry cache filled with LU V≈2000 at P=8 under
// 64 distinct keys (seeds), plus a 65th key and the cold schedule.
func warmCache(b *testing.B) (*Cache, *graph.Graph, machine.System, []Key, *schedule.Schedule) {
	g := luGraph(b)
	sys := machine.NewSystem(8)
	s := coldSchedule(b, g, sys)
	keys := make([]Key, 65)
	for i := range keys {
		keys[i] = KeyOf(g, sys, "flb", int64(i))
	}
	c := NewCache(64)
	for _, k := range keys[:64] {
		c.Put(g, sys, k, s)
	}
	return c, g, sys, keys, s
}

// BenchmarkCachePut: one insert into a warm, full 64-entry cache (LU
// V≈2000, P=8); cycling 65 keys through it makes every Put evict.
func BenchmarkCachePut(b *testing.B) {
	c, g, sys, keys, s := warmCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(g, sys, keys[(64+i)%len(keys)], s)
	}
}

// BenchmarkCacheHit: one exact hit on a warm 64-entry cache (LU V≈2000,
// P=8): the record replayed into a fresh schedule.
func BenchmarkCacheHit(b *testing.B) {
	c, g, sys, keys, _ := warmCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(g, sys, keys[i%64], false); !ok {
			b.Fatal("warm lookup missed")
		}
	}
}
