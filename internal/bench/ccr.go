package bench

import (
	"fmt"
	"strings"

	"flb/internal/algo/registry"
	"flb/internal/machine"
	"flb/internal/par"
	"flb/internal/schedule"
	"flb/internal/stats"
	"flb/internal/workload"
)

// CCRResult holds the granularity sweep (extension): the paper evaluates
// only CCR ∈ {0.2, 5.0}; this sweep traces FLB's speedup and its NSL
// against MCP across the whole granularity range, locating the crossover
// where communication starts to dominate and where FLB's dynamic
// selection pays off against MCP's static priorities.
type CCRResult struct {
	Families []string
	CCRs     []float64
	P        int
	// Speedup[fam][ccr] is FLB's speedup; NSL[fam][ccr] its schedule
	// length normalized to MCP's on the same instance.
	Speedup map[string]map[float64]stats.Summary
	NSL     map[string]map[float64]stats.Summary
}

// CCRSweep measures FLB speedup and NSL-vs-MCP across ccrs at processor
// count p (0 means 16) with `seeds` instances per cell.
func CCRSweep(cfg Config, ccrs []float64, p int) (*CCRResult, error) {
	cfg = cfg.withDefaults()
	if len(ccrs) == 0 {
		ccrs = []float64{0.1, 0.2, 0.5, 1, 2, 5, 10}
	}
	if p == 0 {
		p = 16
	}
	res := &CCRResult{
		Families: cfg.Families,
		CCRs:     ccrs,
		P:        p,
		Speedup:  map[string]map[float64]stats.Summary{},
		NSL:      map[string]map[float64]stats.Summary{},
	}
	sys := machine.NewSystem(p)

	type cellKey struct {
		fam string
		ccr float64
	}
	var keys []cellKey
	for _, fam := range cfg.Families {
		res.Speedup[fam] = map[float64]stats.Summary{}
		res.NSL[fam] = map[float64]stats.Summary{}
		for _, ccr := range ccrs {
			keys = append(keys, cellKey{fam, ccr})
		}
	}
	type cell struct{ speedup, nsl stats.Summary }
	cells := make([]cell, len(keys))
	err := cfg.engine().Each(len(keys), func(w *par.Worker, i int) error {
		k := keys[i]
		flb := w.Scheduler()
		mcp, err := registry.New("mcp", cfg.BaseSeed)
		if err != nil {
			return err
		}
		var speedups, nsls []float64
		for seed := 0; seed < cfg.Seeds; seed++ {
			g, err := workload.Instance(k.fam, cfg.TargetV, k.ccr, cfg.Sampler, cfg.BaseSeed+int64(seed))
			if err != nil {
				return err
			}
			g.Freeze()
			fs, err := flb.Schedule(g, sys)
			if err != nil {
				return fmt.Errorf("bench ccr: flb: %w", err)
			}
			ms, err := mcp.Schedule(g, sys)
			if err != nil {
				return fmt.Errorf("bench ccr: mcp: %w", err)
			}
			speedups = append(speedups, fs.ComputeMetrics().Speedup)
			nsls = append(nsls, schedule.NSL(fs.Makespan(), ms.Makespan()))
		}
		cells[i] = cell{stats.Summarize(speedups), stats.Summarize(nsls)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		res.Speedup[k.fam][k.ccr] = cells[i].speedup
		res.NSL[k.fam][k.ccr] = cells[i].nsl
	}
	return res, nil
}

// Format renders two tables: speedup and NSL, families × CCR values.
func (r *CCRResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CCR sweep (extension) — FLB at P=%d across granularities\n\nspeedup:\n", r.P)
	header := []string{"family"}
	for _, c := range r.CCRs {
		header = append(header, fmt.Sprintf("CCR=%g", c))
	}
	var rows [][]string
	for _, fam := range r.Families {
		row := []string{fam}
		for _, c := range r.CCRs {
			row = append(row, f2(r.Speedup[fam][c].Mean))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	b.WriteString("\nNSL vs MCP:\n")
	rows = rows[:0]
	for _, fam := range r.Families {
		row := []string{fam}
		for _, c := range r.CCRs {
			row = append(row, f3(r.NSL[fam][c].Mean))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	return b.String()
}

// CSV renders the result as comma-separated values.
func (r *CCRResult) CSV() string {
	rows := [][]string{{"family", "ccr", "procs", "flb_speedup", "flb_nsl_vs_mcp", "n"}}
	for _, fam := range r.Families {
		for _, c := range r.CCRs {
			rows = append(rows, []string{
				fam, fmt.Sprint(c), fmt.Sprint(r.P),
				f3(r.Speedup[fam][c].Mean), f3(r.NSL[fam][c].Mean), fmt.Sprint(r.Speedup[fam][c].N),
			})
		}
	}
	return writeCSV(rows)
}
