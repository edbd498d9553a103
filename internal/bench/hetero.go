package bench

import (
	"fmt"
	"strings"

	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/par"
	"flb/internal/sim"
	"flb/internal/stats"
	"flb/internal/workload"
)

// HeteroResult holds the related-machines sweep (extension): FLB with
// the speed-aware selection criterion against a speed-blind baseline on
// machines of growing speed skew. The blind baseline is the natural
// "ignore heterogeneity" deployment: schedule on the homogeneous model,
// then execute that placement self-timed on the actually skewed machine
// (fast processors finish their tasks early, slow ones late). The gap
// between the two quantifies what the speed-aware criterion buys.
type HeteroResult struct {
	Families []string
	Ratios   []float64
	P        int
	CCR      float64
	// Aware[fam][r] summarizes the speed-aware FLB makespan; Blind the
	// speed-blind baseline's executed makespan on the same instances;
	// Gain the per-instance blind/aware ratio (> 1 means speed-aware
	// wins).
	Aware map[string]map[float64]stats.Summary
	Blind map[string]map[float64]stats.Summary
	Gain  map[string]map[float64]stats.Summary
}

// skewSpeeds builds the sweep's machine: the first half of the
// processors runs at speed ratio, the rest at speed 1. Ratio 1 — and
// any vector CanonicalSpeeds collapses — is the homogeneous machine, so
// the sweep's first column doubles as a self-check (blind ≡ aware there,
// bit for bit).
func skewSpeeds(p int, ratio float64) []float64 {
	speeds := make([]float64, p)
	for i := range speeds {
		if i < p/2 {
			speeds[i] = ratio
		} else {
			speeds[i] = 1
		}
	}
	return machine.CanonicalSpeeds(speeds)
}

// Hetero sweeps FLB over fast:slow speed ratios at processor count p
// (0 means 8) with cfg.Seeds instances per cell. Ratios default to
// 1:1 through 8:1; communication uses the first configured CCR (the
// paper's coarse-grained 0.2 by default) and does not scale with speed.
func Hetero(cfg Config, ratios []float64, p int) (*HeteroResult, error) {
	cfg = cfg.withDefaults()
	if len(ratios) == 0 {
		ratios = []float64{1, 2, 4, 8}
	}
	if p == 0 {
		p = 8
	}
	ccr := cfg.CCRs[0]
	res := &HeteroResult{
		Families: cfg.Families,
		Ratios:   ratios,
		P:        p,
		CCR:      ccr,
		Aware:    map[string]map[float64]stats.Summary{},
		Blind:    map[string]map[float64]stats.Summary{},
		Gain:     map[string]map[float64]stats.Summary{},
	}
	sysHomo := machine.NewSystem(p)

	type cellKey struct {
		fam   string
		ratio float64
	}
	var keys []cellKey
	for _, fam := range cfg.Families {
		res.Aware[fam] = map[float64]stats.Summary{}
		res.Blind[fam] = map[float64]stats.Summary{}
		res.Gain[fam] = map[float64]stats.Summary{}
		for _, r := range ratios {
			keys = append(keys, cellKey{fam, r})
		}
	}
	type cell struct{ aware, blind, gain stats.Summary }
	cells := make([]cell, len(keys))
	err := cfg.engine().Each(len(keys), func(w *par.Worker, i int) error {
		k := keys[i]
		sysHet := sysHomo
		sysHet.Speeds = skewSpeeds(p, k.ratio)
		sched := w.Scheduler()
		var awares, blinds, gains []float64
		for seed := 0; seed < cfg.Seeds; seed++ {
			g, err := workload.Instance(k.fam, cfg.TargetV, ccr, cfg.Sampler, cfg.BaseSeed+int64(seed))
			if err != nil {
				return err
			}
			g.Freeze()
			// Speed-blind baseline: plan on the homogeneous model, execute
			// the placement self-timed on the skewed machine. The arena
			// schedule dies at the next Schedule call, so rebind it first.
			hs, err := sched.Schedule(g, sysHomo)
			if err != nil {
				return fmt.Errorf("bench hetero: blind flb: %w", err)
			}
			blindRes, err := sim.Run(hs.CloneFor(g, sysHet), fault.Plan{}, nil, nil, 0, nil, nil)
			if err != nil {
				return fmt.Errorf("bench hetero: blind execution: %w", err)
			}
			// Speed-aware FLB plans directly against the skewed machine.
			as, err := sched.Schedule(g, sysHet)
			if err != nil {
				return fmt.Errorf("bench hetero: aware flb: %w", err)
			}
			awares = append(awares, as.Makespan())
			blinds = append(blinds, blindRes.Makespan)
			gains = append(gains, blindRes.Makespan/as.Makespan())
		}
		cells[i] = cell{stats.Summarize(awares), stats.Summarize(blinds), stats.Summarize(gains)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		res.Aware[k.fam][k.ratio] = cells[i].aware
		res.Blind[k.fam][k.ratio] = cells[i].blind
		res.Gain[k.fam][k.ratio] = cells[i].gain
	}
	return res, nil
}

// Format renders three tables — speed-aware makespan, speed-blind
// makespan, and their ratio — families × speed ratios.
func (r *HeteroResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Related machines (extension) — FLB at P=%d, CCR=%g; half the processors at speed r, half at 1\n\nspeed-aware makespan:\n", r.P, r.CCR)
	header := []string{"family"}
	for _, ratio := range r.Ratios {
		header = append(header, fmt.Sprintf("r=%g:1", ratio))
	}
	cellTable := func(m map[string]map[float64]stats.Summary, f func(float64) string) string {
		var rows [][]string
		for _, fam := range r.Families {
			row := []string{fam}
			for _, ratio := range r.Ratios {
				row = append(row, f(m[fam][ratio].Mean))
			}
			rows = append(rows, row)
		}
		return table(header, rows)
	}
	b.WriteString(cellTable(r.Aware, f2))
	b.WriteString("\nspeed-blind makespan (homogeneous schedule executed on the skewed machine):\n")
	b.WriteString(cellTable(r.Blind, f2))
	b.WriteString("\nblind/aware ratio (> 1: the speed-aware criterion wins):\n")
	b.WriteString(cellTable(r.Gain, f3))
	return b.String()
}

// CSV renders the result as comma-separated values.
func (r *HeteroResult) CSV() string {
	rows := [][]string{{"family", "ratio", "procs", "ccr", "aware_makespan", "blind_makespan", "blind_over_aware", "n"}}
	for _, fam := range r.Families {
		for _, ratio := range r.Ratios {
			rows = append(rows, []string{
				fam, fmt.Sprint(ratio), fmt.Sprint(r.P), fmt.Sprint(r.CCR),
				f2(r.Aware[fam][ratio].Mean), f2(r.Blind[fam][ratio].Mean),
				f3(r.Gain[fam][ratio].Mean), fmt.Sprint(r.Gain[fam][ratio].N),
			})
		}
	}
	return writeCSV(rows)
}
