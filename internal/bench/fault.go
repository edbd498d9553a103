package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"flb/internal/core"
	"flb/internal/fault"
	"flb/internal/machine"
	"flb/internal/par"
	"flb/internal/sim"
	"flb/internal/stats"
)

// FaultScenario labels one column of the fault sweep: a crash count and
// optionally a lossy network.
type FaultScenario struct {
	Crashes int
	Lossy   bool
}

func (s FaultScenario) String() string {
	if s.Lossy {
		return fmt.Sprintf("k=%d+loss", s.Crashes)
	}
	return fmt.Sprintf("k=%d", s.Crashes)
}

// FaultSweepResult holds the fault-tolerance experiment (extension): schedules
// are executed under injected fail-stop crashes (and, in the lossy
// column, 5% message loss with a bounded-retry policy), repaired online
// with the FLB rescheduler, and the reported figure is the degradation —
// faulty makespan divided by the fault-free one. Crash scenarios are
// drawn identically for every algorithm (same processors, same relative
// times), so the columns compare how gracefully each algorithm's
// schedules absorb the same failures.
type FaultSweepResult struct {
	Config     Config
	Algorithms []string
	Scenarios  []FaultScenario
	P          int
	// Degradation[alg][scenario] summarizes faulty/fault-free makespan
	// ratios; Recomputed the per-run revoked execution counts.
	Degradation map[string]map[FaultScenario]stats.Summary
	Recomputed  map[string]map[FaultScenario]stats.Summary
}

// FaultSweep runs the fault-tolerance experiment at the given processor
// count (0 means 8) and crash counts (nil means 1, 2, 4 — each below p),
// with `draws` fault scenarios per schedule (0 means 3). A final lossy
// scenario repeats the smallest crash count with 5% message loss.
func FaultSweep(cfg Config, p int, crashCounts []int, draws int) (*FaultSweepResult, error) {
	cfg = cfg.withDefaults()
	if p == 0 {
		p = 8
	}
	if len(crashCounts) == 0 {
		crashCounts = []int{1, 2, 4}
	}
	if draws == 0 {
		draws = 3
	}
	var scenarios []FaultScenario
	for _, k := range crashCounts {
		if k < 1 || k >= p {
			return nil, fmt.Errorf("bench fault: crash count %d out of range [1, %d]", k, p-1)
		}
		scenarios = append(scenarios, FaultScenario{Crashes: k})
	}
	scenarios = append(scenarios, FaultScenario{Crashes: crashCounts[0], Lossy: true})

	insts, err := cfg.instances()
	if err != nil {
		return nil, err
	}
	algs, err := cfg.algorithms()
	if err != nil {
		return nil, err
	}
	res := &FaultSweepResult{
		Config:      cfg,
		Scenarios:   scenarios,
		P:           p,
		Degradation: map[string]map[FaultScenario]stats.Summary{},
		Recomputed:  map[string]map[FaultScenario]stats.Summary{},
	}
	sys := machine.NewSystem(p)
	for _, a := range algs {
		res.Algorithms = append(res.Algorithms, a.Name())
		res.Degradation[a.Name()] = map[FaultScenario]stats.Summary{}
		res.Recomputed[a.Name()] = map[FaultScenario]stats.Summary{}
	}
	// One job per (algorithm, instance) pair, fanned out over the engine
	// (cfg.Workers). Each job's fault scenarios are drawn from an RNG
	// seeded only by (BaseSeed, scenario, instance, draw) — independent of
	// execution order — and repairs run on the worker's reusable arena,
	// which is history-independent; the sweep's numbers are therefore
	// byte-identical for every worker count. Per-scenario samples are
	// aggregated below in (instance, draw) order, the serial loop's.
	type faultCell struct {
		ratios, recomp map[FaultScenario][]float64
	}
	cells := make([]faultCell, len(algs)*len(insts))
	err = cfg.engine().Each(len(cells), func(w *par.Worker, j int) error {
		ai, ii := j/len(insts), j%len(insts)
		a, err := w.Algorithm(cfg.Algorithms[ai], cfg.BaseSeed)
		if err != nil {
			return err
		}
		re := w.Rescheduler()
		choose := func(fault.Crash, int) (fault.Repairer, error) { return re, nil }
		in := insts[ii]
		s, err := a.Schedule(in.g, sys)
		if err != nil {
			return fmt.Errorf("bench fault: %s: %w", a.Name(), err)
		}
		base, err := sim.Run(s, fault.Plan{}, nil, nil, 0, nil, nil)
		if err != nil {
			return fmt.Errorf("bench fault: sim: %w", err)
		}
		cell := faultCell{
			ratios: map[FaultScenario][]float64{},
			recomp: map[FaultScenario][]float64{},
		}
		for _, sc := range scenarios {
			for d := 0; d < draws; d++ {
				// The scenario rng depends only on (seed, scenario,
				// instance, draw): every algorithm faces the same
				// processors crashing at the same relative times.
				seed := scenarioSeed(cfg.BaseSeed, sc, ii, d)
				rng := rand.New(rand.NewSource(seed))
				plan := fault.Plan{Repair: fault.ModeReschedule}
				for _, q := range rng.Perm(p)[:sc.Crashes] {
					plan.Crashes = append(plan.Crashes, fault.Crash{
						Proc: q,
						Time: (0.1 + 0.8*rng.Float64()) * base.Makespan,
					})
				}
				if sc.Lossy {
					plan.MsgLoss = 0.05
					plan.Retry = fault.RetryPolicy{
						Timeout:    0.01 * base.Makespan,
						MaxRetries: 3,
					}
				}
				fr, err := sim.Run(s, plan, nil, nil, rng.Int63(), choose, nil)
				if err != nil {
					return fmt.Errorf("bench fault: %s: %w", a.Name(), err)
				}
				cell.ratios[sc] = append(cell.ratios[sc], fr.Makespan/base.Makespan)
				cell.recomp[sc] = append(cell.recomp[sc], float64(fr.Recomputed))
			}
		}
		cells[j] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, a := range algs {
		ratios := map[FaultScenario][]float64{}
		recomputed := map[FaultScenario][]float64{}
		for ii := range insts {
			cell := cells[ai*len(insts)+ii]
			for _, sc := range scenarios {
				ratios[sc] = append(ratios[sc], cell.ratios[sc]...)
				recomputed[sc] = append(recomputed[sc], cell.recomp[sc]...)
			}
		}
		for _, sc := range scenarios {
			res.Degradation[a.Name()][sc] = stats.Summarize(ratios[sc])
			res.Recomputed[a.Name()][sc] = stats.Summarize(recomputed[sc])
		}
	}
	if cfg.Observer != nil {
		// One representative observed faulty run — FLB schedule of the
		// first instance under the first scenario, with the online repairs
		// observed too — after the sweep, so observation cannot pollute it.
		s, err := core.FLB{Sink: cfg.Observer}.Schedule(insts[0].g, sys)
		if err != nil {
			return nil, fmt.Errorf("bench fault: observed run: %w", err)
		}
		base, err := sim.Run(s, fault.Plan{}, nil, nil, 0, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("bench fault: observed run: %w", err)
		}
		re := core.NewRescheduler()
		re.Observe(cfg.Observer)
		choose := func(fault.Crash, int) (fault.Repairer, error) { return re, nil }
		sc := scenarios[0]
		seed := scenarioSeed(cfg.BaseSeed, sc, 0, 0)
		rng := rand.New(rand.NewSource(seed))
		plan := fault.Plan{Repair: fault.ModeReschedule}
		for _, q := range rng.Perm(p)[:sc.Crashes] {
			plan.Crashes = append(plan.Crashes, fault.Crash{
				Proc: q,
				Time: (0.1 + 0.8*rng.Float64()) * base.Makespan,
			})
		}
		if _, err := sim.Run(s, plan, nil, nil, rng.Int63(), choose, cfg.Observer); err != nil {
			return nil, fmt.Errorf("bench fault: observed run: %w", err)
		}
	}
	return res, nil
}

// scenarioSeed derives the crash-plan seed of one (scenario, instance,
// draw) cell by chaining sim.DeriveSeed over the cell's coordinates.
// Like instanceSeed, the result depends only on the coordinates — never
// on the cell's position in the sweep — so distinct cells cannot collide
// the way the old additive formula (BaseSeed + 1e9·crashes + 1e6·inst +
// draw) did once any term outgrew its allotted decimal range.
func scenarioSeed(base int64, sc FaultScenario, inst, draw int) int64 {
	seed := sim.DeriveSeed(base, uint64(sc.Crashes))
	seed = sim.DeriveSeed(seed, uint64(inst))
	seed = sim.DeriveSeed(seed, uint64(draw))
	lossy := uint64(1)
	if sc.Lossy {
		lossy = 2
	}
	return sim.DeriveSeed(seed, lossy)
}

// Format renders the fault-tolerance table: algorithms × scenarios, mean
// degradation with the mean recomputation count in parentheses.
func (r *FaultSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance (extension) — fail-stop crashes with online FLB repair, P=%d\n", r.P)
	fmt.Fprintf(&b, "cells: faulty makespan / fault-free makespan, mean (mean recomputed tasks)\n")
	header := []string{"algorithm"}
	for _, sc := range r.Scenarios {
		header = append(header, sc.String())
	}
	var rows [][]string
	for _, a := range r.Algorithms {
		row := []string{a}
		for _, sc := range r.Scenarios {
			row = append(row, fmt.Sprintf("%s (%s)",
				f3(r.Degradation[a][sc].Mean), f1(r.Recomputed[a][sc].Mean)))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	return b.String()
}

// CSV renders the result as comma-separated values.
func (r *FaultSweepResult) CSV() string {
	rows := [][]string{{"algorithm", "scenario", "mean_degradation", "std", "max", "mean_recomputed", "n"}}
	for _, a := range r.Algorithms {
		for _, sc := range r.Scenarios {
			d, rc := r.Degradation[a][sc], r.Recomputed[a][sc]
			rows = append(rows, []string{
				a, sc.String(), f3(d.Mean), f3(d.Std), f3(d.Max), f1(rc.Mean), fmt.Sprint(d.N),
			})
		}
	}
	return writeCSV(rows)
}
