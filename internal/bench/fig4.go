package bench

import (
	"fmt"
	"strings"

	"flb/internal/algo/registry"
	"flb/internal/machine"
	"flb/internal/par"
	"flb/internal/schedule"
	"flb/internal/stats"
)

// Fig4Result holds the normalized schedule lengths of the paper's Fig. 4:
// NSL = makespan(algorithm) / makespan(MCP), per problem family, CCR,
// processor count and algorithm, averaged over the random instances.
// MCP's own row is identically 1 and kept as a sanity anchor.
type Fig4Result struct {
	Config     Config
	Families   []string
	CCRs       []float64
	Procs      []int
	Algorithms []string
	// NSL[family][ccr][p][alg] is the mean normalized schedule length.
	NSL map[string]map[float64]map[int]map[string]stats.Summary
}

// Fig4 measures scheduling performance normalized to MCP.
func Fig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	insts, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	algs, err := cfg.algorithms()
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{
		Config:   cfg,
		Families: cfg.Families,
		CCRs:     cfg.CCRs,
		Procs:    cfg.Procs,
		NSL:      map[string]map[float64]map[int]map[string]stats.Summary{},
	}
	for _, a := range algs {
		res.Algorithms = append(res.Algorithms, a.Name())
	}
	// One job per (family, CCR, P) cell; cells are independent, so they
	// fan out over the engine's pool (cfg.Workers), each job building its
	// own algorithm values.
	type cellKey struct {
		fam string
		ccr float64
		p   int
	}
	var keys []cellKey
	for _, fam := range cfg.Families {
		res.NSL[fam] = map[float64]map[int]map[string]stats.Summary{}
		for _, ccr := range cfg.CCRs {
			res.NSL[fam][ccr] = map[int]map[string]stats.Summary{}
			for _, p := range cfg.Procs {
				keys = append(keys, cellKey{fam, ccr, p})
			}
		}
	}
	cells := make([]map[string]stats.Summary, len(keys))
	err = cfg.engine().Each(len(keys), func(w *par.Worker, i int) error {
		k := keys[i]
		ref, err := registry.New("mcp", cfg.BaseSeed)
		if err != nil {
			return err
		}
		sys := machine.NewSystem(k.p)
		samples := map[string][]float64{}
		for _, in := range insts {
			if in.family != k.fam || in.ccr != k.ccr {
				continue
			}
			refS, err := ref.Schedule(in.g, sys)
			if err != nil {
				return fmt.Errorf("bench fig4: reference MCP: %w", err)
			}
			refMk := refS.Makespan()
			for _, name := range cfg.Algorithms {
				a, err := registry.New(name, cfg.BaseSeed)
				if err != nil {
					return err
				}
				s, err := a.Schedule(in.g, sys)
				if err != nil {
					return fmt.Errorf("bench fig4: %s: %w", a.Name(), err)
				}
				samples[a.Name()] = append(samples[a.Name()], schedule.NSL(s.Makespan(), refMk))
			}
		}
		cell := map[string]stats.Summary{}
		for name, xs := range samples {
			cell[name] = stats.Summarize(xs)
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		res.NSL[k.fam][k.ccr][k.p] = cells[i]
	}
	return res, nil
}

// Format renders one block per (family, CCR): algorithms × processor
// counts — the layout of the paper's Fig. 4 grid.
func (r *Fig4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — normalized schedule length (vs MCP), V≈%d, %d instances per cell\n",
		r.Config.TargetV, r.Config.Seeds)
	for _, fam := range r.Families {
		for _, ccr := range r.CCRs {
			fmt.Fprintf(&b, "\n%s, CCR = %g\n", fam, ccr)
			header := []string{"algorithm"}
			for _, p := range r.Procs {
				header = append(header, fmt.Sprintf("P=%d", p))
			}
			var rows [][]string
			for _, a := range r.Algorithms {
				row := []string{a}
				for _, p := range r.Procs {
					row = append(row, f3(r.NSL[fam][ccr][p][a].Mean))
				}
				rows = append(rows, row)
			}
			b.WriteString(table(header, rows))
		}
	}
	return b.String()
}

// CSV renders the result as comma-separated values.
func (r *Fig4Result) CSV() string {
	rows := [][]string{{"family", "ccr", "procs", "algorithm", "mean_nsl", "std", "n"}}
	for _, fam := range r.Families {
		for _, ccr := range r.CCRs {
			for _, p := range r.Procs {
				for _, a := range r.Algorithms {
					s := r.NSL[fam][ccr][p][a]
					rows = append(rows, []string{
						fam, fmt.Sprint(ccr), fmt.Sprint(p), a, f3(s.Mean), f3(s.Std), fmt.Sprint(s.N),
					})
				}
			}
		}
	}
	return writeCSV(rows)
}
