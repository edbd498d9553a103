package bench

import (
	"fmt"
	"strings"
	"time"

	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/par"
	"flb/internal/sim"
	"flb/internal/stats"
)

// Fig2Result holds the scheduling-cost measurements of the paper's Fig. 2:
// the average running time of each algorithm, per processor count,
// averaged over the whole instance matrix (problems × CCRs × seeds).
type Fig2Result struct {
	Config     Config
	Algorithms []string
	Procs      []int
	// Millis[alg][p] summarizes the per-instance scheduling times in
	// milliseconds.
	Millis map[string]map[int]stats.Summary
}

// Fig2 measures scheduling running times. Absolute values depend on the
// host; the reproduced shape is the *ordering* (ETF ≫ MCP ≫ FLB ≈ FCP,
// DSC-LLB flat) and the growth trends with P.
//
//flb:wallclock measurement shell: times Schedule calls on the host clock
func Fig2(cfg Config) (*Fig2Result, error) {
	cfg = cfg.withDefaults()
	insts, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	algs, err := cfg.algorithms()
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{
		Config: cfg,
		Procs:  cfg.Procs,
		Millis: map[string]map[int]stats.Summary{},
	}
	// One job per (algorithm, P) cell, fanned out over the engine
	// (cfg.Workers). Each worker times its own algorithm instance, so the
	// measured work per cell is exactly the serial sweep's; with a pool the
	// cells overlap in wall-clock time, trading per-sample stability for
	// sweep throughput (see Config.Workers).
	type cellKey struct {
		alg int
		p   int
	}
	var keys []cellKey
	for i, a := range algs {
		res.Algorithms = append(res.Algorithms, a.Name())
		res.Millis[a.Name()] = map[int]stats.Summary{}
		for _, p := range cfg.Procs {
			keys = append(keys, cellKey{i, p})
		}
	}
	cells := make([]stats.Summary, len(keys))
	err = cfg.engine().Each(len(keys), func(w *par.Worker, i int) error {
		k := keys[i]
		a, err := w.Algorithm(cfg.Algorithms[k.alg], cfg.BaseSeed)
		if err != nil {
			return err
		}
		sys := machine.NewSystem(k.p)
		// Untimed warm-up: fault in code paths and caches so the first
		// timed sample is not an outlier.
		if _, err := a.Schedule(insts[0].g, sys); err != nil {
			return fmt.Errorf("bench fig2: warm-up: %w", err)
		}
		var samples []float64
		for _, in := range insts {
			start := time.Now()
			s, err := a.Schedule(in.g, sys)
			elapsed := time.Since(start)
			if err != nil {
				return fmt.Errorf("bench fig2: %s on %s: %w", a.Name(), in.g.Name, err)
			}
			if !s.Complete() {
				return fmt.Errorf("bench fig2: %s produced incomplete schedule", a.Name())
			}
			samples = append(samples, float64(elapsed.Nanoseconds())/1e6)
		}
		cells[i] = stats.Summarize(samples)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		res.Millis[algs[k.alg].Name()][k.p] = cells[i]
	}
	if cfg.Observer != nil {
		// One representative observed run — FLB schedule plus exact
		// execution of the first instance at the largest machine — after
		// the timed loops, so observation cannot pollute the samples.
		p := cfg.Procs[len(cfg.Procs)-1]
		s, err := core.FLB{Sink: cfg.Observer}.Schedule(insts[0].g, machine.NewSystem(p))
		if err != nil {
			return nil, fmt.Errorf("bench fig2: observed run: %w", err)
		}
		if _, err := sim.Run(s, fault.Plan{}, nil, nil, 0, nil, cfg.Observer); err != nil {
			return nil, fmt.Errorf("bench fig2: observed run: %w", err)
		}
	}
	return res, nil
}

// Format renders the Fig. 2 table: algorithms × processor counts, mean
// scheduling time in milliseconds.
func (r *Fig2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — scheduling cost [ms], V≈%d, %d instances per cell\n",
		r.Config.TargetV, len(r.Config.Families)*len(r.Config.CCRs)*r.Config.Seeds)
	header := []string{"algorithm"}
	for _, p := range r.Procs {
		header = append(header, fmt.Sprintf("P=%d", p))
	}
	var rows [][]string
	for _, a := range r.Algorithms {
		row := []string{a}
		for _, p := range r.Procs {
			row = append(row, f3(r.Millis[a][p].Mean))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	return b.String()
}

// CSV renders the result as comma-separated values.
func (r *Fig2Result) CSV() string {
	rows := [][]string{{"algorithm", "procs", "mean_ms", "std_ms", "min_ms", "max_ms", "n"}}
	for _, a := range r.Algorithms {
		for _, p := range r.Procs {
			s := r.Millis[a][p]
			rows = append(rows, []string{
				a, fmt.Sprint(p), f3(s.Mean), f3(s.Std), f3(s.Min), f3(s.Max), fmt.Sprint(s.N),
			})
		}
	}
	return writeCSV(rows)
}
