package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/sim"
	"flb/internal/stats"
)

// RobustResult holds the robustness experiment (extension beyond the
// paper): schedules are computed from estimated costs, then *executed*
// self-timed (internal/sim) with actual costs jittered by ±eps; the
// reported figure is the slowdown, actual makespan divided by the planned
// one. It quantifies how sensitive each algorithm's schedules are to the
// misestimation every compile-time scheduler faces in practice.
type RobustResult struct {
	Config     Config
	Algorithms []string
	Epsilons   []float64
	P          int
	// Slowdown[alg][eps] summarizes actual/planned makespan ratios.
	Slowdown map[string]map[float64]stats.Summary
}

// robustJitterStream is the sim.DeriveSeed stream of the robustness
// sweep's execution jitter, decorrelating it from the workload streams
// derived from the same BaseSeed.
const robustJitterStream uint64 = 7

// Robust runs the robustness experiment at the given processor count
// (0 means 8) and jitter levels (nil means 0, 0.1, 0.3, 0.5), with `draws`
// simulated executions per schedule (0 means 5).
func Robust(cfg Config, p int, epsilons []float64, draws int) (*RobustResult, error) {
	cfg = cfg.withDefaults()
	if p == 0 {
		p = 8
	}
	if len(epsilons) == 0 {
		epsilons = []float64{0, 0.1, 0.3, 0.5}
	}
	if draws == 0 {
		draws = 5
	}
	insts, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	algs, err := cfg.algorithms()
	if err != nil {
		return nil, err
	}
	res := &RobustResult{
		Config:   cfg,
		Epsilons: epsilons,
		P:        p,
		Slowdown: map[string]map[float64]stats.Summary{},
	}
	sys := machine.NewSystem(p)
	// Deliberately serial (Config.Workers is ignored): each (alg, eps)
	// column consumes one RNG sequence spanning all instances and draws,
	// so any fan-out across instances would shift the draws and change the
	// published numbers. The whole sweep is cheap relative to a draw's
	// simulation; parallelism is not worth breaking reproducibility here.
	for _, a := range algs {
		res.Algorithms = append(res.Algorithms, a.Name())
		res.Slowdown[a.Name()] = map[float64]stats.Summary{}
		for _, eps := range epsilons {
			var ratios []float64
			rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.BaseSeed, robustJitterStream)))
			for _, in := range insts {
				s, err := a.Schedule(in.g, sys)
				if err != nil {
					return nil, fmt.Errorf("bench robust: %s: %w", a.Name(), err)
				}
				planned := s.Makespan()
				for d := 0; d < draws; d++ {
					r, err := sim.Run(s, fault.Plan{}, sim.UniformJitter(rng, eps), sim.UniformJitter(rng, eps), 0, nil, nil)
					if err != nil {
						return nil, fmt.Errorf("bench robust: sim: %w", err)
					}
					ratios = append(ratios, r.Makespan/planned)
				}
			}
			res.Slowdown[a.Name()][eps] = stats.Summarize(ratios)
		}
	}
	return res, nil
}

// Format renders the robustness table: algorithms × jitter levels, mean
// slowdown (actual / planned makespan).
func (r *RobustResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness (extension) — self-timed execution under ±eps cost jitter, P=%d\n", r.P)
	fmt.Fprintf(&b, "cells: actual makespan / planned makespan (mean)\n")
	header := []string{"algorithm"}
	for _, eps := range r.Epsilons {
		header = append(header, fmt.Sprintf("eps=%g", eps))
	}
	var rows [][]string
	for _, a := range r.Algorithms {
		row := []string{a}
		for _, eps := range r.Epsilons {
			row = append(row, f3(r.Slowdown[a][eps].Mean))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	return b.String()
}

// CSV renders the result as comma-separated values.
func (r *RobustResult) CSV() string {
	rows := [][]string{{"algorithm", "eps", "mean_slowdown", "std", "max", "n"}}
	for _, a := range r.Algorithms {
		for _, eps := range r.Epsilons {
			s := r.Slowdown[a][eps]
			rows = append(rows, []string{
				a, fmt.Sprint(eps), f3(s.Mean), f3(s.Std), f3(s.Max), fmt.Sprint(s.N),
			})
		}
	}
	return writeCSV(rows)
}
