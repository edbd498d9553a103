// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§5 and §6):
//
//   - Table 1 (with Fig. 1): the FLB execution trace on the example graph;
//   - Fig. 2: scheduling cost (running time) of MCP, ETF, DSC-LLB, FCP and
//     FLB as a function of the processor count;
//   - Fig. 3: FLB speedup per problem and CCR;
//   - Fig. 4: normalized schedule lengths (relative to MCP) per problem,
//     CCR and processor count;
//   - a scaling sweep backing the complexity claims (extension).
//
// Absolute running times depend on the host CPU (the paper used a Pentium
// Pro/233); the harness reproduces the *shape*: orderings, ratios and
// trends. Every experiment is deterministic given Config.BaseSeed.
package bench

import (
	"fmt"
	"math"

	"flb/internal/algo"
	"flb/internal/algo/registry"
	"flb/internal/graph"
	"flb/internal/obs"
	"flb/internal/sim"
	"flb/internal/workload"
)

// Config parameterizes the experiment suite. The zero value is completed
// by withDefaults to the paper's setup: V ≈ 2000, CCR ∈ {0.2, 5.0},
// P ∈ {2,4,8,16,32}, 5 random instances per problem and CCR, problems LU,
// Laplace and Stencil, the five measured algorithms.
type Config struct {
	// TargetV is the approximate task count per instance (paper: 2000).
	TargetV int
	// CCRs are the communication-to-computation ratios (paper: 0.2, 5.0).
	CCRs []float64
	// Procs are the machine sizes (paper: 2..32).
	Procs []int
	// Seeds is the number of random instances per (family, CCR) pair
	// (paper: 5).
	Seeds int
	// Families are the workload family names (paper: lu, laplace, stencil;
	// fig. 3 discussion adds fft).
	Families []string
	// Algorithms are the registry names measured by Fig. 2 and Fig. 4.
	Algorithms []string
	// Sampler draws the random weights; nil means Uniform02 (DESIGN.md §5).
	Sampler workload.Sampler
	// BaseSeed offsets every instance seed, keeping runs reproducible.
	BaseSeed int64
	// Workers is the batch-engine pool size fanning the sweeps'
	// independent cells out: 0 (the default) runs serially, n > 1 uses a
	// pool of n workers, negative selects GOMAXPROCS. Results are
	// byte-identical for every value — the pool only changes wall-clock
	// time. For the timing sweeps (Fig. 2, throughput) the *set* of timed
	// work per cell is unchanged, but concurrent cells share the CPUs, so
	// per-cell latency samples are noisier; run them serially when sample
	// stability matters and parallel when total throughput does. The
	// robustness sweep alone ignores Workers: its draws share one RNG
	// sequence across instances, which no fan-out can reproduce.
	Workers int
	// Observer, when non-nil, receives the event stream of one
	// representative observed run per experiment (schedule + execution on
	// the first instance), emitted after the measured loops so
	// observation never pollutes timings or results. Wired to flbbench
	// -trace.
	Observer obs.Sink
}

// Default returns the paper's configuration.
func Default() Config { return Config{}.withDefaults() }

// Quick returns a scaled-down configuration (V ≈ 200, 2 seeds, P up to 16)
// for smoke tests and fast local runs.
func Quick() Config {
	return Config{
		TargetV: 200,
		Procs:   []int{2, 4, 8, 16},
		Seeds:   2,
	}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.TargetV == 0 {
		c.TargetV = 2000
	}
	if len(c.CCRs) == 0 {
		c.CCRs = []float64{0.2, 5.0}
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{2, 4, 8, 16, 32}
	}
	if c.Seeds == 0 {
		c.Seeds = 5
	}
	if len(c.Families) == 0 {
		c.Families = []string{"lu", "laplace", "stencil"}
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = registry.PaperNames()
	}
	if c.Sampler == nil {
		c.Sampler = workload.Uniform02{}
	}
	return c
}

// instance is one randomized workload of the experiment matrix.
type instance struct {
	family string
	ccr    float64
	seed   int64
	g      *graph.Graph
}

// instanceSeed derives the workload seed of matrix cell (family, ccr, s)
// by hashing the cell's coordinates (FNV-1a) into a sim.DeriveSeed
// stream of BaseSeed. The seed depends only on the cell itself — never on
// its position in the (family × CCR × seed) matrix — so editing Families,
// CCRs or Seeds leaves every surviving cell's workload bit-identical, and
// distinct cells cannot collide the way the old position-based formula
// (BaseSeed + s + 1000·index) did whenever Seeds reached 1000.
func (c Config) instanceSeed(family string, ccr float64, s int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byte1a := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	word1a := func(x uint64) {
		for i := 0; i < 8; i++ {
			byte1a(byte(x))
			x >>= 8
		}
	}
	for i := 0; i < len(family); i++ {
		byte1a(family[i])
	}
	byte1a(0) // family/ccr separator: no string-boundary ambiguity
	word1a(math.Float64bits(ccr))
	word1a(uint64(s))
	return sim.DeriveSeed(c.BaseSeed, h)
}

// instances generates the full (family × CCR × seed) matrix of cfg,
// deterministic in cfg.BaseSeed; each cell's workload is stable under
// matrix edits (see instanceSeed).
func (c Config) instances() ([]instance, error) {
	var out []instance
	for _, fam := range c.Families {
		for _, ccr := range c.CCRs {
			for s := 0; s < c.Seeds; s++ {
				seed := c.instanceSeed(fam, ccr, s)
				g, err := workload.Instance(fam, c.TargetV, ccr, c.Sampler, seed)
				if err != nil {
					return nil, fmt.Errorf("bench: %w", err)
				}
				g.Freeze() // schedulers may share instances across goroutines
				out = append(out, instance{family: fam, ccr: ccr, seed: seed, g: g})
			}
		}
	}
	return out, nil
}

// algorithms resolves cfg.Algorithms through the registry.
func (c Config) algorithms() ([]algo.Algorithm, error) {
	out := make([]algo.Algorithm, 0, len(c.Algorithms))
	for _, name := range c.Algorithms {
		a, err := registry.New(name, c.BaseSeed)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
