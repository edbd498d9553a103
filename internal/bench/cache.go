package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"flb/internal/core"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/memo"
	"flb/internal/schedule"
	"flb/internal/stats"
	"flb/internal/workload"
)

// cacheMixRates are the repeat-rate mixes of the request-stream
// experiment: the percentage of requests that resubmit an
// already-scheduled problem.
var cacheMixRates = [...]int{0, 50, 90}

// cacheMixLen is the request-stream length per mix.
const cacheMixLen = 40

// cacheWarmRounds is how many timed lookup rounds the warm tier runs per
// instance; multiple rounds amortize GC pauses over the samples instead
// of letting a single collection dominate a 30-sample mean.
const cacheWarmRounds = 5

// CacheResult holds the schedule-cache measurements (extension; see
// DESIGN.md §13): per-request scheduling latency of the three tiers —
// cold (no cache), warm (exact fingerprint hit) and near (structure hit
// with trailing weight drift, suffix-repaired) — plus mixed request
// streams at several repeat rates. While measuring, the sweep asserts the
// determinism contract: every exact hit is byte-identical (WriteJSON) to
// the cold run on the same problem, and every near hit is valid and
// byte-stable across repeated lookups.
type CacheResult struct {
	Config Config
	Procs  int

	// Per-tier request latency in milliseconds, over the instance matrix.
	Cold, Warm, Near stats.Summary
	// NearAnswered counts the drifted lookups the near tier answered
	// (the rest fell through to cold).
	NearAnswered int
	NearLookups  int

	// Mixes are the request-stream measurements.
	Mixes []CacheMix
}

// CacheMix is one request stream: RepeatPct percent of the Requests
// resubmit a previously scheduled problem (exact tier), the rest are
// fresh instances.
type CacheMix struct {
	RepeatPct  int
	Requests   int
	Millis     stats.Summary
	HitRatePct float64
}

// scheduleJSON serializes s for byte-identity comparison.
func scheduleJSON(s *schedule.Schedule) (string, error) {
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// CacheSweep measures cold, warm and near-hit scheduling latency and the
// mixed request streams. Serial by design: the samples are per-request
// latencies, and the determinism assertions want a stable cold baseline.
//
//flb:wallclock measurement shell: times cold/warm/near lookups on the host clock
func CacheSweep(cfg Config) (*CacheResult, error) {
	cfg = cfg.withDefaults()
	insts, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	p := cfg.Procs[len(cfg.Procs)-1]
	sys := machine.NewSystem(p)
	res := &CacheResult{Config: cfg, Procs: p}
	sc := core.NewScheduler(core.FLB{})

	// Cold tier: the arena scheduler, no cache. Keep each run's bytes as
	// the identity baseline for the warm tier.
	coldJSON := make([]string, len(insts))
	if _, err := sc.Schedule(insts[0].g, sys); err != nil { // untimed warm-up
		return nil, fmt.Errorf("bench cache: warm-up: %w", err)
	}
	var coldMS []float64
	for i, in := range insts {
		start := time.Now()
		s, err := sc.Schedule(in.g, sys)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench cache: cold %s: %w", in.g.Name, err)
		}
		coldMS = append(coldMS, float64(elapsed.Nanoseconds())/1e6)
		if coldJSON[i], err = scheduleJSON(s); err != nil {
			return nil, err
		}
	}
	res.Cold = stats.Summarize(coldMS)

	// Warm tier: insert everything, assert every hit byte-equals the cold
	// run (untimed — JSON serialization litters the heap, and its GC debt
	// must not land inside a timed lookup), then time cacheWarmRounds
	// rounds of exact lookups. Each timed region is the full cost the
	// facade pays on a hit: the fingerprint walk plus the record replay.
	// The near tier is on from the start, because Put snapshots the
	// weights it repairs from only while it is on; exact lookups never
	// consult it.
	cache := memo.NewCache(2 * len(insts))
	cache.EnableNearHit(true)
	for _, in := range insts {
		s, err := sc.Schedule(in.g, sys)
		if err != nil {
			return nil, err
		}
		cache.Put(in.g, sys, memo.KeyOf(in.g, sys, "flb", cfg.BaseSeed), s)
	}
	for i, in := range insts {
		s, ok := cache.Get(in.g, sys, memo.KeyOf(in.g, sys, "flb", cfg.BaseSeed), false)
		if !ok {
			return nil, fmt.Errorf("bench cache: warm lookup missed %s", in.g.Name)
		}
		js, err := scheduleJSON(s)
		if err != nil {
			return nil, err
		}
		if js != coldJSON[i] {
			return nil, fmt.Errorf("bench cache: warm hit for %s differs from cold run", in.g.Name)
		}
	}
	runtime.GC()
	var warmMS []float64
	for round := 0; round < cacheWarmRounds; round++ {
		for _, in := range insts {
			start := time.Now()
			key := memo.KeyOf(in.g, sys, "flb", cfg.BaseSeed)
			_, ok := cache.Get(in.g, sys, key, false)
			elapsed := time.Since(start)
			if !ok {
				return nil, fmt.Errorf("bench cache: warm lookup missed %s", in.g.Name)
			}
			warmMS = append(warmMS, float64(elapsed.Nanoseconds())/1e6)
		}
	}
	res.Warm = stats.Summarize(warmMS)

	// Near tier: drift the computation cost of the tasks in the trailing
	// quarter of each cold schedule's placement order, then look the
	// variant up with the near tier. Asserts validity and byte-stability
	// of every answer.
	var nearMS []float64
	for _, in := range insts {
		base, err := sc.Schedule(in.g, sys)
		if err != nil {
			return nil, err
		}
		order := base.PlacementOrder()
		n := len(order)
		drifted := in.g.Clone()
		for _, t := range order[n-n/4:] {
			drifted.SetComp(t, in.g.Comp(t)*1.125)
		}
		drifted.Freeze()
		// Refresh the base problem (untimed): the shape pointer tracks the
		// most recently used structure-equal entry, so the drifted lookup
		// repairs against this instance, not a same-family sibling.
		if _, ok := cache.Get(in.g, sys, memo.KeyOf(in.g, sys, "flb", cfg.BaseSeed), false); !ok {
			return nil, fmt.Errorf("bench cache: base %s evicted", in.g.Name)
		}
		res.NearLookups++
		start := time.Now()
		key := memo.KeyOf(drifted, sys, "flb", cfg.BaseSeed)
		s, ok := cache.Get(drifted, sys, key, true)
		elapsed := time.Since(start)
		if !ok {
			continue // no reusable prefix; the facade would schedule cold
		}
		res.NearAnswered++
		nearMS = append(nearMS, float64(elapsed.Nanoseconds())/1e6)
		if s.Algorithm != "flb-nearhit" {
			return nil, fmt.Errorf("bench cache: near hit for %s labeled %q", in.g.Name, s.Algorithm)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("bench cache: near hit for %s invalid: %w", in.g.Name, err)
		}
		js1, err := scheduleJSON(s)
		if err != nil {
			return nil, err
		}
		s2, ok := cache.Get(drifted, sys, key, true)
		if !ok {
			return nil, fmt.Errorf("bench cache: near hit for %s not repeatable", in.g.Name)
		}
		js2, err := scheduleJSON(s2)
		if err != nil {
			return nil, err
		}
		if js1 != js2 {
			return nil, fmt.Errorf("bench cache: near hit for %s not deterministic", in.g.Name)
		}
	}
	res.Near = stats.Summarize(nearMS)

	// Mixed streams: repeatPct percent of requests resubmit a base
	// instance round-robin; the rest are fresh instances drawn from seeds
	// beyond the matrix (never cached before). Each mix starts from a
	// freshly warmed exact-tier cache, modeling a steady-state service.
	for _, rate := range cacheMixRates {
		mix, err := cfg.cacheMix(sc, sys, insts, rate)
		if err != nil {
			return nil, err
		}
		res.Mixes = append(res.Mixes, *mix)
	}
	return res, nil
}

// cacheMix runs one repeat-rate request stream against a freshly warmed
// cache and summarizes per-request latency and the stream's hit rate.
//
//flb:wallclock measurement shell: times per-request latency on the host clock
func (c Config) cacheMix(sc *core.Scheduler, sys machine.System, insts []instance, repeatPct int) (*CacheMix, error) {
	cache := memo.NewCache(2 * (len(insts) + cacheMixLen))
	for _, in := range insts {
		s, err := sc.Schedule(in.g, sys)
		if err != nil {
			return nil, err
		}
		cache.Put(in.g, sys, memo.KeyOf(in.g, sys, "flb", c.BaseSeed), s)
	}
	before := cache.Stats()
	fresh := 0
	var ms []float64
	for j := 0; j < cacheMixLen; j++ {
		var g *graph.Graph
		// Deterministic Bresenham interleaving: request j repeats iff the
		// running count j*rate/100 advances at j, which spreads exactly
		// repeatPct% repeats evenly over the stream.
		if (j*repeatPct)/100 != ((j+1)*repeatPct)/100 {
			g = insts[j%len(insts)].g
		} else {
			fam := c.Families[fresh%len(c.Families)]
			ccr := c.CCRs[fresh%len(c.CCRs)]
			seed := c.instanceSeed(fam, ccr, c.Seeds+fresh)
			ng, err := workload.Instance(fam, c.TargetV, ccr, c.Sampler, seed)
			if err != nil {
				return nil, err
			}
			ng.Freeze()
			g = ng
			fresh++
		}
		start := time.Now()
		key := memo.KeyOf(g, sys, "flb", c.BaseSeed)
		s, ok := cache.Get(g, sys, key, false)
		if !ok {
			var err error
			if s, err = sc.Schedule(g, sys); err != nil {
				return nil, err
			}
			cache.Put(g, sys, key, s)
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		_ = s
	}
	after := cache.Stats()
	gets := after.Gets - before.Gets
	hits := after.Hits - before.Hits + after.NearHits - before.NearHits
	hitRate := 0.0
	if gets > 0 {
		hitRate = float64(hits) * 100 / float64(gets)
	}
	return &CacheMix{
		RepeatPct:  repeatPct,
		Requests:   cacheMixLen,
		Millis:     stats.Summarize(ms),
		HitRatePct: hitRate,
	}, nil
}

// Format renders the tier table and the mix table.
func (r *CacheResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cache — memoized FLB scheduling, V≈%d, P=%d, %d instances\n",
		r.Config.TargetV, r.Procs, r.Cold.N)
	header := []string{"tier", "runs", "mean_ms", "std_ms", "min_ms", "max_ms", "speedup_vs_cold"}
	rows := [][]string{
		cacheRow("cold", r.Cold, r.Cold),
		cacheRow("warm", r.Warm, r.Cold),
		cacheRow("near", r.Near, r.Cold),
	}
	b.WriteString(table(header, rows))
	fmt.Fprintf(&b, "near tier answered %d/%d drifted lookups\n\n", r.NearAnswered, r.NearLookups)
	header = []string{"repeat_pct", "requests", "mean_ms", "hit_rate_pct", "speedup_vs_cold"}
	rows = nil
	for _, m := range r.Mixes {
		speed := 0.0
		if m.Millis.Mean > 0 {
			speed = r.Cold.Mean / m.Millis.Mean
		}
		rows = append(rows, []string{
			fmt.Sprint(m.RepeatPct), fmt.Sprint(m.Requests),
			fmt.Sprintf("%.4f", m.Millis.Mean), f1(m.HitRatePct), f2(speed),
		})
	}
	b.WriteString(table(header, rows))
	return b.String()
}

func cacheRow(tier string, s, cold stats.Summary) []string {
	speed := 0.0
	if s.Mean > 0 {
		speed = cold.Mean / s.Mean
	}
	return []string{
		tier, fmt.Sprint(s.N),
		fmt.Sprintf("%.4f", s.Mean), fmt.Sprintf("%.4f", s.Std),
		fmt.Sprintf("%.4f", s.Min), fmt.Sprintf("%.4f", s.Max),
		f2(speed),
	}
}

// CSV renders the result as comma-separated values: one row per tier,
// then one per mix.
func (r *CacheResult) CSV() string {
	rows := [][]string{{"kind", "label", "runs", "mean_ms", "std_ms", "min_ms", "max_ms", "speedup_vs_cold", "hit_rate_pct"}}
	tier := func(name string, s stats.Summary) {
		speed := 0.0
		if s.Mean > 0 {
			speed = r.Cold.Mean / s.Mean
		}
		rows = append(rows, []string{
			"tier", name, fmt.Sprint(s.N),
			fmt.Sprintf("%.4f", s.Mean), fmt.Sprintf("%.4f", s.Std),
			fmt.Sprintf("%.4f", s.Min), fmt.Sprintf("%.4f", s.Max),
			f2(speed), "",
		})
	}
	tier("cold", r.Cold)
	tier("warm", r.Warm)
	tier("near", r.Near)
	for _, m := range r.Mixes {
		speed := 0.0
		if m.Millis.Mean > 0 {
			speed = r.Cold.Mean / m.Millis.Mean
		}
		rows = append(rows, []string{
			"mix", fmt.Sprintf("repeat%d", m.RepeatPct), fmt.Sprint(m.Requests),
			fmt.Sprintf("%.4f", m.Millis.Mean), fmt.Sprintf("%.4f", m.Millis.Std),
			fmt.Sprintf("%.4f", m.Millis.Min), fmt.Sprintf("%.4f", m.Millis.Max),
			f2(speed), f1(m.HitRatePct),
		})
	}
	return writeCSV(rows)
}
