package memo

import (
	"math"
	"sync"

	"flb/internal/core"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/obs"
	"flb/internal/schedule"
)

// Stats are a cache's cumulative counters (the AdjCache stats idiom:
// gets, hits and puts plus a hit-rate accessor). NearHits counts the
// suffix-repaired tier separately so exact reuse and approximate reuse
// stay distinguishable.
type Stats struct {
	Gets      int64
	Hits      int64
	NearHits  int64
	Puts      int64
	Evictions int64
}

// Misses returns the lookups answered by neither tier.
func (s Stats) Misses() int64 { return s.Gets - s.Hits - s.NearHits }

// HitRate returns the percentage of lookups answered from the cache
// (exact and near hits combined), 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits+s.NearHits) * 100 / float64(s.Gets)
}

// entry is one cached schedule. Entries are pre-allocated in a fixed
// slice and linked intrusively (prev/next indexes) into the LRU list and
// the free list, so steady-state churn moves indexes around instead of
// allocating nodes; the per-entry weight arrays are arenas that survive
// eviction and are regrown in place for the replacing schedule.
type entry struct {
	key   Key
	sched *schedule.Schedule // deep copy; owned by the cache

	// Weight snapshot of the cached problem, used by the near-hit tier to
	// locate the first drifted placement: comps[t] is task t's computation
	// cost; comms packs every in-edge communication cost in per-task
	// window order (the KeyOf walk); pos[t] is t's position in the cached
	// schedule's placement order.
	comps []float64
	comms []float64
	pos   []int

	prev, next int
}

// Cache is a fixed-capacity LRU cache of finished schedules keyed by
// canonical fingerprint (KeyOf). All methods are safe for concurrent use
// (one mutex guards the whole cache), so a single Cache can back a batch
// engine's worker pool.
//
// Get answers an exact hit — Full fingerprints equal — with a deep copy
// of the cached schedule rebound to the caller's graph; by the
// determinism of the scheduler, that copy is byte-identical to what a
// cold run on the submitted problem would produce. With the near-hit
// tier enabled (EnableNearHit) and permitted by the caller, a lookup
// whose Shape matches a cached entry but whose trailing weights drifted
// is answered by replaying the unaffected placement prefix and repairing
// only the suffix via core.Rescheduler — deterministic, valid, labeled
// "flb-nearhit", but not the cold schedule (see DESIGN.md §13). Near-hit
// results are never inserted back into the cache: their Full key must
// keep mapping to the cold schedule so later exact hits stay
// byte-identical to cold runs.
type Cache struct {
	mu sync.Mutex
	//flb:guarded-by mu
	entries []entry
	//flb:guarded-by mu
	full map[Fingerprint]int
	// shape is the most recently hit/inserted entry per shape.
	//flb:guarded-by mu
	shape map[Fingerprint]int
	// head is the most recently used entry, -1 when empty.
	//flb:guarded-by mu
	head int
	// tail is the least recently used entry, -1 when empty.
	//flb:guarded-by mu
	tail int
	// free heads the free list, -1 when full.
	//flb:guarded-by mu
	free int
	//flb:guarded-by mu
	len int
	//flb:guarded-by mu
	near bool
	// re is the private repair arena of the near-hit tier.
	//flb:guarded-by mu
	re *core.Rescheduler
	//flb:guarded-by mu
	stats Stats
}

// NewCache returns an empty cache holding at most capacity schedules
// (capacity < 1 is clamped to 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		entries: make([]entry, capacity),
		full:    make(map[Fingerprint]int, capacity),
		shape:   make(map[Fingerprint]int, capacity),
		head:    -1,
		tail:    -1,
		free:    0,
	}
	for i := range c.entries {
		c.entries[i].next = i + 1
	}
	c.entries[capacity-1].next = -1
	return c
}

// EnableNearHit switches the near-hit suffix-repair tier on or off
// (default off). Callers still gate it per lookup via Get's allowNear —
// the batch engine always passes false, because which entry a near hit
// repairs against depends on cache-warm order and would break batch
// determinism under concurrent misses.
func (c *Cache) EnableNearHit(on bool) {
	c.mu.Lock()
	c.near = on
	c.mu.Unlock()
}

// Len returns the number of cached schedules.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.len
}

// Cap returns the cache's fixed capacity.
//
//flb:unguarded entries is allocated once in NewCache and never resized; its length is immutable
func (c *Cache) Cap() int { return len(c.entries) }

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StatsEvent returns the counters as the observability event emitted by
// the facade after cached runs.
func (c *Cache) StatsEvent() obs.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obs.CacheStats{
		Gets:      c.stats.Gets,
		Hits:      c.stats.Hits,
		NearHits:  c.stats.NearHits,
		Puts:      c.stats.Puts,
		Evictions: c.stats.Evictions,
		Len:       c.len,
		Cap:       len(c.entries),
	}
}

// Reset empties the cache and zeroes the counters, keeping the entry
// arenas' capacity.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.full)
	clear(c.shape)
	for i := range c.entries {
		c.entries[i].sched = nil
		c.entries[i].key = Key{}
		c.entries[i].next = i + 1
	}
	c.entries[len(c.entries)-1].next = -1
	c.head, c.tail, c.free, c.len = -1, -1, 0, 0
	c.stats = Stats{}
}

// Get looks the problem up by key. On an exact hit it returns a deep copy
// of the cached schedule rebound to g and sys; on a near hit (tier
// enabled and allowNear true) it returns the suffix-repaired schedule.
// The second result reports whether either tier answered.
func (c *Cache) Get(g *graph.Graph, sys machine.System, key Key, allowNear bool) (*schedule.Schedule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Gets++
	if i, ok := c.full[key.Full]; ok {
		c.touch(i)
		// The shape pointer tracks the most recently used entry per
		// structure, so a drifted resubmission repairs against the weights
		// it most plausibly drifted from — the problem just looked up —
		// not whichever structure-equal sibling was inserted last.
		c.shape[key.Shape] = i
		c.stats.Hits++
		return c.entries[i].sched.CloneFor(g, sys), true
	}
	if allowNear && c.near {
		if i, ok := c.shape[key.Shape]; ok {
			if s := c.nearHit(i, g, sys); s != nil {
				c.touch(i)
				c.stats.NearHits++
				return s, true
			}
		}
	}
	return nil, false
}

// Put inserts the schedule for key, deep-copying it (callers may pass
// arena-owned schedules). A key already present is only touched — by
// scheduler determinism the stored copy is identical — so concurrent
// misses on the same problem converge on one entry. The least recently
// used entry is evicted when the cache is full.
func (c *Cache) Put(g *graph.Graph, sys machine.System, key Key, s *schedule.Schedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.full[key.Full]; ok {
		c.touch(i)
		c.shape[key.Shape] = i
		return
	}
	var i int
	if c.free >= 0 {
		i = c.free
		c.free = c.entries[i].next
	} else {
		i = c.tail
		c.unlink(i)
		old := &c.entries[i]
		delete(c.full, old.key.Full)
		if j, ok := c.shape[old.key.Shape]; ok && j == i {
			delete(c.shape, old.key.Shape)
		}
		c.len--
		c.stats.Evictions++
	}
	e := &c.entries[i]
	e.key = key
	e.sched = s.CloneFor(g, sys)
	c.snapshotWeights(e, g, s)
	c.full[key.Full] = i
	c.shape[key.Shape] = i
	c.pushFront(i)
	c.len++
	c.stats.Puts++
}

// snapshotWeights fills the entry's weight arrays from the problem just
// cached, reusing (and growing) the previous occupant's arenas.
func (c *Cache) snapshotWeights(e *entry, g *graph.Graph, s *schedule.Schedule) {
	n := g.NumTasks()
	e.comps = growFloat(e.comps, n)
	e.comms = growFloat(e.comms, g.NumEdges())
	e.pos = growInt(e.pos, n)
	ci := 0
	for t := 0; t < n; t++ {
		e.comps[t] = g.Comp(t)
		for _, ei := range g.PredEdges(t) {
			e.comms[ci] = g.Edge(int(ei)).Comm
			ci++
		}
	}
	for idx, t := range s.PlacementOrder() {
		e.pos[t] = idx
	}
}

// nearHit attempts the suffix repair of entry i for the drifted problem
// (g, sys): it locates k, the earliest cached placement position whose
// task changed (computation cost, or any in-edge communication cost),
// replays positions < k and replans the rest. It returns nil when no
// strict prefix is reusable (k == 0), when nothing actually drifted, or
// when the entry's dimensions do not match (a would-be shape collision).
func (c *Cache) nearHit(i int, g *graph.Graph, sys machine.System) *schedule.Schedule {
	e := &c.entries[i]
	n := g.NumTasks()
	if len(e.comps) != n || len(e.comms) != g.NumEdges() || len(e.pos) != n {
		return nil
	}
	k := n
	ci := 0
	for t := 0; t < n; t++ {
		changed := math.Float64bits(e.comps[t]) != math.Float64bits(g.Comp(t))
		for _, ei := range g.PredEdges(t) {
			if math.Float64bits(e.comms[ci]) != math.Float64bits(g.Edge(int(ei)).Comm) {
				changed = true
			}
			ci++
		}
		if changed && e.pos[t] < k {
			k = e.pos[t]
		}
	}
	if k == 0 || k == n {
		// k == n means no weight differs — a Full mismatch with equal
		// weights can only be a fingerprint anomaly; serve it cold.
		return nil
	}
	if c.re == nil {
		c.re = core.NewRescheduler()
	}
	ns, err := c.re.ReplanSuffix(g, sys, e.sched, k)
	if err != nil {
		return nil
	}
	return ns.Clone()
}

// touch moves entry i to the front of the LRU list.
func (c *Cache) touch(i int) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *Cache) unlink(i int) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache) pushFront(i int) {
	e := &c.entries[i]
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func growFloat(v []float64, n int) []float64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}

func growInt(v []int, n int) []int {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]int, n)
}
