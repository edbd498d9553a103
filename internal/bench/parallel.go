package bench

import (
	"runtime"

	"flb/internal/par"
)

// The sweeps fan their independent cells out through the internal/par
// batch engine: each worker owns reusable scheduling arenas, each job
// builds its registry algorithms with registry.New (value types whose
// scratch is pooled per package), and every job writes only into its own
// slot. Results are therefore byte-identical for
// any Config.Workers value; see the determinism argument in internal/par.
// Only the robustness sweep stays serial — its draws consume one RNG
// sequence spanning instances, which a fan-out cannot reproduce.

// workerCount resolves Config.Workers: 0 means serial, negative means
// GOMAXPROCS, anything else is the pool size.
func (c Config) workerCount() int {
	switch {
	case c.Workers == 0:
		return 1
	case c.Workers < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return c.Workers
	}
}

// engine returns a fresh batch engine sized by Config.Workers.
func (c Config) engine() *par.Engine { return par.New(c.workerCount()) }
