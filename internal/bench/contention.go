package bench

import (
	"fmt"
	"strings"

	"flb/internal/algo/registry"
	"flb/internal/machine"
	"flb/internal/par"
	"flb/internal/sim"
	"flb/internal/stats"
)

// ContentionResult holds the network-contention experiment (extension):
// schedules planned under the paper's contention-free model (§2) are
// executed on networks where remote messages serialize, and the slowdown
// (contended / planned makespan) quantifies how much the model's
// optimism costs each algorithm.
type ContentionResult struct {
	Config     Config
	Algorithms []string
	Networks   []sim.Network
	P          int
	// Slowdown[alg][net] summarizes contended/planned makespan ratios.
	Slowdown map[string]map[sim.Network]stats.Summary
}

// Contention runs the experiment at processor count p (0 means 8) over
// the standard instance matrix.
func Contention(cfg Config, p int) (*ContentionResult, error) {
	cfg = cfg.withDefaults()
	if p == 0 {
		p = 8
	}
	insts, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	algs, err := cfg.algorithms()
	if err != nil {
		return nil, err
	}
	nets := []sim.Network{sim.PerLink, sim.PerPort, sim.SharedBus}
	res := &ContentionResult{
		Config:   cfg,
		Networks: nets,
		P:        p,
		Slowdown: map[string]map[sim.Network]stats.Summary{},
	}
	sys := machine.NewSystem(p)
	// keys address algorithms by registry name (cfg.Algorithms index) so
	// each engine worker builds its own instance; display names label the
	// result rows.
	type cell struct {
		alg int
		net sim.Network
	}
	var keys []cell
	for i, a := range algs {
		res.Algorithms = append(res.Algorithms, a.Name())
		res.Slowdown[a.Name()] = map[sim.Network]stats.Summary{}
		for _, nw := range nets {
			keys = append(keys, cell{i, nw})
		}
	}
	cells := make([]stats.Summary, len(keys))
	err = cfg.engine().Each(len(keys), func(w *par.Worker, i int) error {
		k := keys[i]
		a, err := registry.New(cfg.Algorithms[k.alg], cfg.BaseSeed)
		if err != nil {
			return err
		}
		var ratios []float64
		for _, in := range insts {
			s, err := a.Schedule(in.g, sys)
			if err != nil {
				return fmt.Errorf("bench contention: %s: %w", a.Name(), err)
			}
			r, err := sim.RunContended(s, k.net, nil)
			if err != nil {
				return fmt.Errorf("bench contention: sim: %w", err)
			}
			ratios = append(ratios, r.Makespan/s.Makespan())
		}
		cells[i] = stats.Summarize(ratios)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		res.Slowdown[algs[k.alg].Name()][k.net] = cells[i]
	}
	return res, nil
}

// Format renders the contention table: algorithms × network models, mean
// slowdown over the planned (contention-free) makespan.
func (r *ContentionResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Contention (extension) — planned vs executed makespan under serializing networks, P=%d\n", r.P)
	header := []string{"algorithm"}
	for _, nw := range r.Networks {
		header = append(header, nw.String())
	}
	var rows [][]string
	for _, a := range r.Algorithms {
		row := []string{a}
		for _, nw := range r.Networks {
			row = append(row, f3(r.Slowdown[a][nw].Mean))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	return b.String()
}

// CSV renders the result as comma-separated values.
func (r *ContentionResult) CSV() string {
	rows := [][]string{{"algorithm", "network", "mean_slowdown", "std", "max", "n"}}
	for _, a := range r.Algorithms {
		for _, nw := range r.Networks {
			s := r.Slowdown[a][nw]
			rows = append(rows, []string{a, nw.String(), f3(s.Mean), f3(s.Std), f3(s.Max), fmt.Sprint(s.N)})
		}
	}
	return writeCSV(rows)
}
