// Package memo implements schedule memoization: a canonical fingerprint
// over scheduling problems plus a fixed-capacity, arena-friendly LRU
// cache of finished schedules (cache.go). Real scheduling traffic is
// repetitive — the same workload shapes at the same CCRs and machine
// sizes arrive over and over — so a repeat submission can be answered
// with an O(V+E) hash and a deep copy instead of a full FLB run.
//
// # Canonical fingerprints
//
// KeyOf hashes everything the FLB schedule depends on: the CSR adjacency
// structure (per-task predecessor windows, in insertion order — the order
// the schedulers' tie-breaking relies on), the task and edge weights, the
// machine (P and the communication model's name), the algorithm name and
// the seed. Two submissions with equal Full fingerprints are the same
// scheduling problem, so the cached schedule is byte-identical to what a
// cold run would produce (graph and task *names* are deliberately not
// hashed: they do not influence placement, and cache hits are rebound to
// the caller's graph, so renamed resubmissions still hit).
//
// The Shape fingerprint covers the same stream minus the weights. A
// submission whose Shape matches a cached entry but whose Full does not
// is the near-hit case: same structure and parameters, drifted weights —
// cache.go repairs the placement suffix below the first drifted task via
// core.Rescheduler instead of scheduling from scratch.
//
// The hash is a pair of independent 64-bit lanes (128 bits total), each
// absorbing words through a xor-rotate-multiply round and finalized with
// a splitmix64 avalanche. It is not cryptographic, but a spurious hit
// requires colliding both lanes on adversarially chosen inputs; for the
// cooperative traffic a scheduling service sees, collisions are
// vanishingly unlikely (the 50k-instance sweep in fingerprint_test.go
// pins zero collisions).
//
// # Overhead discipline
//
// KeyOf is a steady-state zero-allocation hot path (//flb:hotpath,
// enforced by flblint): it walks the frozen graph's CSR windows and mixes
// machine words; the only possible allocations are a first-touch
// adjacency build on a never-frozen graph and a communication model whose
// Name() formats (the default clique model returns a constant).
package memo

import (
	"math"

	"flb/internal/graph"
	"flb/internal/machine"
)

// fpVersion tags the fingerprint layout. Bump it whenever the hashed
// stream changes so stale fingerprints from older layouts cannot alias
// new ones.
const fpVersion = 1

// fpSpeedsTag extends the v1 layout for uniformly related machines
// (layout v2): systems with a non-unit speed vector absorb this marker
// followed by one word per processor speed. Homogeneous systems — nil
// Speeds or all exactly 1.0 — absorb nothing extra and therefore hash
// bit-identically to layout v1, so warm caches survive the upgrade. The
// marker word cannot be confused with the comm-name length or V that
// bracket it in the stream (both are bounded far below 2^63).
const fpSpeedsTag = 0xa24baed4963ee407

// Fingerprint is a 128-bit hash of a scheduling problem.
type Fingerprint struct {
	Hi, Lo uint64
}

// Key identifies one scheduling problem in the cache: Full hashes
// structure, weights and parameters; Shape hashes structure and
// parameters only (the near-hit index).
type Key struct {
	Full  Fingerprint
	Shape Fingerprint
}

// Lane seeds and round primes: arbitrary odd constants (golden ratio /
// xxhash primes), offset differently per lane and per fingerprint so the
// four chains are independent.
const (
	laneLo      = 0x9e3779b97f4a7c15
	laneHi      = 0xc2b2ae3d27d4eb4f
	shapeOffset = 0x2545f4914f6cdd1d
	primeLo     = 0x9e3779b185ebca87
	primeHi     = 0xc2b2ae3d27d4eb4f
)

// mix64 is the splitmix64 finalizer: a bijective avalanche over one word.
//
//flb:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hasher is one 128-bit chaining state. It lives on KeyOf's stack; the
// methods are leaf calls that the compiler inlines, so hashing allocates
// nothing.
type hasher struct {
	hi, lo uint64
}

// rotl is a 64-bit left rotation (compiles to a single instruction).
//
//flb:hotpath
func rotl(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

// word absorbs one machine word into both lanes through one
// xor-rotate-multiply round each (different rotations and primes keep the
// lanes independent). The rounds are deliberately cheap — one multiply
// per lane — because KeyOf's word stream is O(V+E) long and dominates the
// warm-hit latency; full avalanche is deferred to sum's mix64 finalizer.
//
//flb:hotpath
func (h *hasher) word(x uint64) {
	h.lo = rotl(h.lo^x, 29) * primeLo
	h.hi = rotl(h.hi^x, 47) * primeHi
}

// sum finalizes the state into a fingerprint: one splitmix64 avalanche
// per lane, cross-mixing the lanes so truncated use of either half still
// depends on the full stream.
//
//flb:hotpath
func (h *hasher) sum() Fingerprint {
	return Fingerprint{Hi: mix64(h.hi ^ (h.lo >> 17)), Lo: mix64(h.lo ^ (h.hi << 13))}
}

// str absorbs a length-prefixed string, optionally folding ASCII case so
// registry-style case-insensitive names hash equally.
//
//flb:hotpath
func (h *hasher) str(s string, fold bool) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if fold && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h.word(uint64(c))
	}
}

// KeyOf computes the canonical fingerprints of the scheduling problem
// (g, sys, algorithm, seed) in one O(V+E) pass. An empty algorithm name
// canonicalizes to "flb" (the facade default) and names hash
// case-insensitively, matching the registry's lookup rules. The walk
// visits each task's predecessor window in CSR order, so any edge
// insertion order that produces the same per-task windows — the only
// property the schedulers observe — fingerprints identically.
//
// Internally the structure+parameter stream and the weight stream feed
// two separate hashers: the shape hasher's sum IS the Shape fingerprint,
// and Full is an avalanche over both sums. Splitting the streams absorbs
// each word exactly once (instead of once per fingerprint) and keeps the
// two hash chains data-independent inside the CSR walk, so they overlap
// in the pipeline — KeyOf is the dominant cost of a warm hit, and the
// warm tier's speedup target rides on this loop.
//
//flb:hotpath
func KeyOf(g *graph.Graph, sys machine.System, algorithm string, seed int64) Key {
	if algorithm == "" {
		algorithm = "flb"
	}
	sh := hasher{hi: laneHi, lo: laneLo}                             // structure + parameters
	wh := hasher{hi: laneHi ^ shapeOffset, lo: laneLo ^ shapeOffset} // weights
	sh.word(fpVersion)
	sh.str(algorithm, true)
	sh.word(uint64(seed))
	sh.word(uint64(sys.P))
	// A nil model means Clique (machine.System.CommCost), so the two
	// spellings of the same machine must fingerprint identically.
	commName := machine.Clique{}.Name()
	if sys.Comm != nil {
		commName = sys.Comm.Name()
	}
	sh.str(commName, false)
	// Uniformly related machines: the speed vector changes schedules, so
	// it is part of the problem identity. Unit-speed systems skip the
	// block entirely — however the homogeneous machine was spelled
	// (nil or all-1.0 speeds), it must keep its layout-v1 hash.
	if !sys.UnitSpeeds() {
		sh.word(fpSpeedsTag)
		for _, sp := range sys.Speeds {
			sh.word(math.Float64bits(sp))
		}
	}
	v, e := g.NumTasks(), g.NumEdges()
	sh.word(uint64(v))
	sh.word(uint64(e))
	for t := 0; t < v; t++ {
		wh.word(math.Float64bits(g.Comp(t)))
		preds := g.PredEdges(t)
		// The window length delimits tasks so window boundaries cannot
		// alias across adjacent tasks.
		sh.word(uint64(len(preds)))
		for _, ei := range preds {
			ed := g.Edge(int(ei))
			sh.word(uint64(ed.From))
			wh.word(math.Float64bits(ed.Comm))
		}
	}
	shape := sh.sum()
	w := wh.sum()
	return Key{
		Full:  Fingerprint{Hi: mix64(shape.Hi ^ w.Hi), Lo: mix64(shape.Lo ^ w.Lo)},
		Shape: shape,
	}
}
