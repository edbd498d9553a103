package flb

import "flb/internal/memo"

// ScheduleCache memoizes finished FLB schedules across Run and RunBatch
// calls (internal/memo): problems are keyed by a canonical
// fingerprint over graph structure, task and edge weights, processor
// count, speeds, communication model, algorithm and seed, and a
// fixed-capacity LRU holds each result's placement record — one
// (task, processor, start) triple per task, 16 bytes, and nothing of the
// submitted graph, which the cache never keeps alive.
//
// An exact hit — same fingerprint — replays the record on the submitted
// graph and system, so names and communication model are the caller's,
// and returns a schedule byte-identical to what the cold run would
// produce: the fingerprint covers every weight and speed bit, so the
// replayed finish times are the cold ones. Graph and task names are
// deliberately not fingerprinted: resubmitting a renamed copy of a
// cached problem hits.
//
// The optional near-hit tier (EnableNearHit, default off; turn it on
// before inserting, because only entries inserted while it is on carry
// the weight snapshot it repairs from) also answers structure-equal
// problems whose trailing weights drifted, by replaying the unaffected
// placement prefix and list-scheduling only the suffix. Near-hit
// schedules are valid and deterministic but labeled "flb-nearhit" and
// not identical to a cold FLB run; see DESIGN.md §13 for when that trade
// is sound.
//
// Scope and contract:
//
//   - Only the FLB path is cached. Registry algorithms selected with
//     WithAlgorithm schedule uncached.
//   - Observed runs (WithObserver) bypass lookups — the observer gets the
//     cold decision stream — but still insert their result, and receive a
//     CacheStats snapshot after the run.
//   - RunBatch shares one cache across all workers (the cache
//     is internally locked) and use the exact tier only: which entry a
//     near hit would repair against depends on warm order, which under
//     concurrent misses would break the batch determinism contract.
//   - Counters (gets, hits, near hits, puts, evictions) are readable via
//     Stats/HitRate, the memory the entries hold via Bytes, and all of
//     them with Len and Cap via Telemetry's Cache field.
type ScheduleCache = memo.Cache

// NewScheduleCache returns an empty schedule cache holding at most
// capacity schedules (capacity < 1 is clamped to 1).
func NewScheduleCache(capacity int) *ScheduleCache { return memo.NewCache(capacity) }

// WithCache routes Run and RunBatch FLB scheduling through c:
// lookups are answered from the cache and misses schedule cold and
// insert. A nil cache disables memoization (the default). The same cache
// value may back any number of concurrent calls.
func WithCache(c *ScheduleCache) Option {
	return func(o *Options) { o.cache = c }
}
