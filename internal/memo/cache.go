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

// entry is one cached answer. Entries are pre-allocated in a fixed slice
// and linked intrusively (prev/next indexes) into the LRU list and the
// free list, so steady-state churn moves indexes around instead of
// allocating nodes; the record and snapshot arrays are arenas that
// survive eviction and are refilled in place for the replacing problem.
// An entry holds no graph and no schedule, so it keeps nothing of the
// submitted problem alive.
type entry struct {
	key Key
	rec schedule.Record // the cached placements; owned by the cache

	// Weight snapshot of the cached problem, taken only when the near-hit
	// tier was on at insertion (snap), used by that tier to locate the
	// first drifted placement: comps[t] is task t's computation cost;
	// comms packs every in-edge communication cost in per-task window
	// order (the KeyOf walk).
	snap  bool
	comps []float64
	comms []float64

	prev, next int
}

// bytes returns the bytes held by the entry's record and snapshot
// arenas.
func (e *entry) bytes() int64 {
	return int64(e.rec.Bytes() + 8*cap(e.comps) + 8*cap(e.comms))
}

// Cache is a fixed-capacity LRU cache of finished schedules keyed by
// canonical fingerprint (KeyOf). All methods are safe for concurrent use
// (one mutex guards the whole cache), so a single Cache can back a batch
// engine's worker pool.
//
// An entry is a placement record (schedule.Record): the cached run's
// (task, processor, start) triples in placement order, 16 bytes per
// task, plus its algorithm label and P. Get answers an exact hit — Full
// fingerprints equal — by replaying the record on the caller's graph and
// system; because the Full key covers every weight and speed bit, the
// replay is byte-identical to what a cold run on the submitted problem
// would produce. With the near-hit tier enabled (EnableNearHit) and
// permitted by the caller, a lookup whose Shape matches an entry inserted
// while the tier was on, but whose trailing weights drifted, is answered
// by replaying the unaffected placement prefix and repairing only the
// suffix via core.Rescheduler — deterministic, valid, labeled
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
	// bytes is the sum of the entries' arena bytes.
	//flb:guarded-by mu
	bytes int64
	//flb:guarded-by mu
	near bool
	// re is the private repair arena of the near-hit tier, and pos its
	// scratch: pos[t] is task t's position in the repaired entry's
	// placement order.
	//flb:guarded-by mu
	re *core.Rescheduler
	//flb:guarded-by mu
	pos []int
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
// (default off). Turn it on before inserting: Put takes the weight
// snapshot the tier repairs from only while the tier is on, so an entry
// inserted while it was off is never repaired. Callers still gate it per
// lookup via Get's allowNear — the batch engine always passes false,
// because which entry a near hit repairs against depends on cache-warm
// order and would break batch determinism under concurrent misses.
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

// Bytes returns the bytes the entries' placement records and weight
// snapshots hold (their arenas' capacity; the maps, the fixed per-entry
// bookkeeping and the near tier's repair scratch are not counted).
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StatsEvent returns the counters, the entry count and the bytes held as
// the observability event emitted by the facade after cached runs. All
// fields come from one critical section, so Len always equals Puts minus
// Evictions since the last Reset.
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
		Bytes:     c.bytes,
	}
}

// Reset empties the cache and zeroes the counters, keeping the entry
// arenas (still counted by Bytes) for the next Puts to refill.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.full)
	clear(c.shape)
	for i := range c.entries {
		c.entries[i].key = Key{}
		c.entries[i].next = i + 1
	}
	c.entries[len(c.entries)-1].next = -1
	c.head, c.tail, c.free, c.len = -1, -1, 0, 0
	c.stats = Stats{}
}

// Get looks the problem up by key. On an exact hit it returns the cached
// placements replayed on g and sys; on a near hit (tier enabled and
// allowNear true) it returns the suffix-repaired schedule. The second
// result reports whether either tier answered. An entry whose task count
// or P differs from (g, sys) — a fingerprint collision — answers neither.
func (c *Cache) Get(g *graph.Graph, sys machine.System, key Key, allowNear bool) (*schedule.Schedule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Gets++
	if i, ok := c.full[key.Full]; ok {
		e := &c.entries[i]
		if !e.rec.Fits(g, sys) {
			return nil, false
		}
		c.touch(i)
		// The shape pointer tracks the most recently used entry per
		// structure, so a drifted resubmission repairs against the weights
		// it most plausibly drifted from — the problem just looked up —
		// not whichever structure-equal sibling was inserted last.
		c.shape[key.Shape] = i
		c.stats.Hits++
		return e.rec.Replay(g, sys), true
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

// Put inserts the schedule for key as a placement record (callers may
// pass arena-owned schedules; nothing of s or g is retained). A key
// already present is only touched — by scheduler determinism the stored
// record is identical — so concurrent misses on the same problem
// converge on one entry. The least recently used entry is evicted when
// the cache is full. A schedule that schedule.Recordable rejects
// (incomplete, duplicated copies, P beyond 32 bits) is not cached.
func (c *Cache) Put(g *graph.Graph, sys machine.System, key Key, s *schedule.Schedule) {
	if !schedule.Recordable(s) {
		return
	}
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
	c.bytes -= e.bytes()
	e.key = key
	e.rec.Fill(s)
	e.snap = c.near
	if e.snap {
		snapshotWeights(e, g)
	} else {
		e.comps, e.comms = nil, nil
	}
	c.bytes += e.bytes()
	c.full[key.Full] = i
	c.shape[key.Shape] = i
	c.pushFront(i)
	c.len++
	c.stats.Puts++
}

// snapshotWeights fills the entry's weight arrays from the problem just
// cached, reusing the previous occupant's arenas.
func snapshotWeights(e *entry, g *graph.Graph) {
	n := g.NumTasks()
	e.comps = growFloat(e.comps, n)
	e.comms = growFloat(e.comms, g.NumEdges())
	ci := 0
	for t := 0; t < n; t++ {
		e.comps[t] = g.Comp(t)
		for _, ei := range g.PredEdges(t) {
			e.comms[ci] = g.Edge(int(ei)).Comm
			ci++
		}
	}
}

// nearHit attempts the suffix repair of entry i for the drifted problem
// (g, sys): it locates k, the earliest cached placement position whose
// task changed (computation cost, or any in-edge communication cost),
// replays positions < k and replans the rest. It returns nil when the
// entry has no weight snapshot, when no strict prefix is reusable
// (k == 0), when nothing actually drifted, or when the entry's dimensions
// do not match (a would-be shape collision).
func (c *Cache) nearHit(i int, g *graph.Graph, sys machine.System) *schedule.Schedule {
	e := &c.entries[i]
	n := g.NumTasks()
	if !e.snap || !e.rec.Fits(g, sys) || len(e.comps) != n || len(e.comms) != g.NumEdges() {
		return nil
	}
	c.pos = growInt(c.pos, n)
	for idx := 0; idx < n; idx++ {
		c.pos[e.rec.Step(idx).Task] = idx
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
		if changed && c.pos[t] < k {
			k = c.pos[t]
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
	defer c.re.Release()
	ns, err := c.re.ReplanSuffix(g, sys, &e.rec, k)
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

// growFloat returns v resized to n, reallocated when too small or more
// than twice too large (so an arena follows the problem it holds).
func growFloat(v []float64, n int) []float64 {
	if cap(v) >= n && cap(v) <= 2*n {
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
