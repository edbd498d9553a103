// Command flbbench regenerates the tables and figures of the paper's
// evaluation (§5, §6): Table 1 (the FLB execution trace), Fig. 2
// (scheduling cost vs P), Fig. 3 (FLB speedup) and Fig. 4 (normalized
// schedule lengths vs MCP), plus a complexity-scaling sweep.
//
// Usage:
//
//	flbbench -exp all                 # the paper's full setup (V≈2000, 5 seeds)
//	flbbench -exp fig4 -quick         # scaled-down smoke run
//	flbbench -exp fig2 -csv           # machine-readable output
//	flbbench -exp all -quick -json    # one JSON document for all experiments
//	flbbench -exp fig3 -v 1000 -seeds 3 -procs 2,4,8
//	flbbench -exp fig2 -parallel 8    # fan the sweep over 8 workers (same numbers)
//	flbbench -exp throughput -quick   # batch jobs/sec vs worker-pool size
//	flbbench -exp fig2 -cpuprofile cpu.out -memprofile mem.out
//	flbbench -exp fig2 -quick -trace trace.json   # Chrome Trace Event JSON
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"flb/internal/bench"
	"flb/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flbbench:", err)
		os.Exit(1)
	}
}

// csver is implemented by results with a machine-readable table form.
type csver interface{ CSV() string }

// formatter is implemented by every experiment result.
type formatter interface{ Format() string }

// jsonExperiment is one experiment in the -json summary: tabular results
// carry their CSV columns and rows; text-only results (table1, scaling,
// optimality) carry the formatted text instead.
type jsonExperiment struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Text    string     `json:"text,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flbbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: table1, fig2, fig3, fig4, scaling, scale, robust, fault, ablation, ccr, hetero, contention, optimality, throughput, cache, or all")
		quick    = fs.Bool("quick", false, "scaled-down configuration (V≈200, 2 seeds)")
		targetV  = fs.Int("v", 0, "override the approximate task count (default 2000; 200 with -quick)")
		seeds    = fs.Int("seeds", 0, "override instances per (family, CCR) (default 5; 2 with -quick, and -exp all trims heavy sweeps to 2)")
		procsArg = fs.String("procs", "", "override processor counts, comma-separated (default 2,4,8,16,32)")
		families = fs.String("families", "", "override families, comma-separated (default lu,laplace,stencil)")
		seed     = fs.Int64("seed", 1, "base seed for instance generation and tie-breaking")
		csvFlag  = fs.Bool("csv", false, "emit CSV instead of formatted tables")
		jsonFlag = fs.Bool("json", false, "emit one JSON summary document instead of text")
		par      = fs.Int("parallel", 0, "worker-pool size for the sweeps (0 = serial, negative = all CPUs); results are identical for every value")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (after the experiments) to this file")
		traceOut = fs.String("trace", "", "write a Chrome Trace Event JSON of one representative run per experiment ('-' for stdout)")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvFlag && *jsonFlag {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := bench.Default()
	if *quick {
		cfg = bench.Quick()
	}
	cfg.BaseSeed = *seed
	cfg.Workers = *par
	if *targetV > 0 {
		cfg.TargetV = *targetV
	}
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	if *procsArg != "" {
		ps, err := parseInts(*procsArg)
		if err != nil {
			return fmt.Errorf("-procs: %w", err)
		}
		cfg.Procs = ps
	}
	if *families != "" {
		cfg.Families = strings.Split(*families, ",")
	}
	var traceClose func() error
	if *traceOut != "" {
		w := io.Writer(stdout)
		var f *os.File
		if *traceOut != "-" {
			var err error
			if f, err = os.Create(*traceOut); err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
			w = f
		}
		ct := obs.NewChromeTrace(w)
		cfg.Observer = ct
		traceClose = func() error {
			if err := ct.Close(); err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
			if f != nil {
				return f.Close()
			}
			return nil
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	var jsonOut []jsonExperiment
	// emit renders one experiment result in the selected output mode.
	// header is an optional explanatory line printed (or, in JSON mode,
	// ignored) before text-formatted output.
	emit := func(name, header string, r formatter) error {
		switch {
		case *jsonFlag:
			e := jsonExperiment{Name: name}
			if c, ok := r.(csver); ok {
				cols, rows, err := parseCSV(c.CSV())
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				e.Columns, e.Rows = cols, rows
			} else {
				e.Text = r.Format()
			}
			jsonOut = append(jsonOut, e)
		case *csvFlag:
			if c, ok := r.(csver); ok {
				fmt.Fprint(stdout, c.CSV())
				break
			}
			fmt.Fprintln(stdout, r.Format())
		default:
			if header != "" {
				fmt.Fprintln(stdout, header)
			}
			fmt.Fprintln(stdout, r.Format())
		}
		return nil
	}

	if want("table1") {
		ran = true
		r, err := bench.Table1()
		if err != nil {
			return err
		}
		if err := emit("table1", "", r); err != nil {
			return err
		}
	}
	if want("fig2") {
		ran = true
		r, err := bench.Fig2(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig2", "", r); err != nil {
			return err
		}
	}
	if want("fig3") {
		ran = true
		r, err := bench.Fig3(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig3", "", r); err != nil {
			return err
		}
	}
	if want("fig4") {
		ran = true
		r, err := bench.Fig4(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig4", "", r); err != nil {
			return err
		}
	}
	if want("robust") {
		ran = true
		rcfg := cfg
		if *exp == "all" && !*quick {
			// The robustness sweep multiplies the matrix by jitter levels
			// and simulation draws; a reduced seed count keeps "all" fast.
			rcfg.Seeds = 2
		}
		r, err := bench.Robust(rcfg, 8, nil, 0)
		if err != nil {
			return err
		}
		if err := emit("robust", "", r); err != nil {
			return err
		}
	}
	if want("fault") {
		ran = true
		fcfg := cfg
		if *exp == "all" && !*quick {
			// Like robust: the sweep multiplies the matrix by scenarios and
			// draws; a reduced seed count keeps "all" fast.
			fcfg.Seeds = 2
		}
		r, err := bench.FaultSweep(fcfg, 8, nil, 0)
		if err != nil {
			return err
		}
		if err := emit("fault", "", r); err != nil {
			return err
		}
	}
	if want("ablation") {
		ran = true
		// NSL comparison (Fig. 4 machinery) across FLB's tie-breaking
		// ablations and the extension baselines, normalized to MCP.
		acfg := cfg
		acfg.Algorithms = []string{"mcp", "flb", "flb-nobl", "flb-eptie", "flb-ls", "hlfet", "dls", "dsh", "dsc-llb", "ez-llb", "lc-llb"}
		if *exp == "all" && !*quick {
			acfg.Seeds = 2
			acfg.TargetV = 500 // EZ re-evaluates per edge; keep "all" fast
		}
		r, err := bench.Fig4(acfg)
		if err != nil {
			return err
		}
		if err := emit("ablation", "Ablation — NSL vs MCP for FLB tie-breaking variants and extension baselines", r); err != nil {
			return err
		}
	}
	if want("ccr") {
		ran = true
		ccfg := cfg
		if *exp == "all" && !*quick {
			ccfg.Seeds = 2
		}
		r, err := bench.CCRSweep(ccfg, nil, 16)
		if err != nil {
			return err
		}
		if err := emit("ccr", "", r); err != nil {
			return err
		}
	}
	if want("hetero") {
		ran = true
		hcfg := cfg
		if *exp == "all" && !*quick {
			hcfg.Seeds = 2
		}
		r, err := bench.Hetero(hcfg, nil, 8)
		if err != nil {
			return err
		}
		if err := emit("hetero", "", r); err != nil {
			return err
		}
	}
	if want("contention") {
		ran = true
		ncfg := cfg
		if *exp == "all" && !*quick {
			ncfg.Seeds = 2
		}
		r, err := bench.Contention(ncfg, 8)
		if err != nil {
			return err
		}
		if err := emit("contention", "", r); err != nil {
			return err
		}
	}
	if want("optimality") {
		ran = true
		instances := 25
		if *quick {
			instances = 8
		}
		algs := []string{"mcp", "etf", "dsc-llb", "fcp", "flb", "flb-ls", "hlfet", "dls"}
		r, err := bench.Optimality(instances, 9, 3, algs, *seed)
		if err != nil {
			return err
		}
		if err := emit("optimality", "", r); err != nil {
			return err
		}
	}
	if want("throughput") {
		ran = true
		tcfg := cfg
		if *exp == "all" && !*quick {
			// Throughput tiles the matrix into repeated timed batches; the
			// quick matrix is plenty to saturate the pool and keeps "all" fast.
			tcfg.TargetV = 500
			tcfg.Seeds = 2
		}
		r, err := bench.Throughput(tcfg, nil)
		if err != nil {
			return err
		}
		if err := emit("throughput", "", r); err != nil {
			return err
		}
	}
	if want("cache") {
		ran = true
		ccfg := cfg
		if *exp == "all" && !*quick {
			// The sweep schedules every instance several times per tier and
			// mix; the quick-sized matrix measures the same ratios.
			ccfg.TargetV = 500
			ccfg.Seeds = 2
		}
		r, err := bench.CacheSweep(ccfg)
		if err != nil {
			return err
		}
		if err := emit("cache", "", r); err != nil {
			return err
		}
	}
	if want("scaling") {
		ran = true
		sizes := []int{250, 500, 1000, 2000}
		reps := 3
		if *quick {
			sizes = []int{100, 200, 400}
			reps = 1
		}
		r, err := bench.Scaling(nil, sizes, 8, reps, *seed)
		if err != nil {
			return err
		}
		if err := emit("scaling", "", r); err != nil {
			return err
		}
	}
	if want("scale") {
		ran = true
		sizes := []int{100000, 1000000}
		rssBudget := bench.ScalePeakRSSBudgetMB
		if *quick || *exp == "all" {
			// The quick sweep stops at 10^5 tasks — the smallest size whose
			// allocator overhead is representative of the million-task rows
			// — and exercises the same streaming-build and compact-CSR
			// paths in CI seconds.
			sizes = []int{100000}
			rssBudget = bench.ScaleQuickPeakRSSBudgetMB
		}
		if *exp != "scale" {
			// Peak RSS is process-wide: once any other experiment ran in
			// this process the high-water mark is not the sweep's.
			rssBudget = 0
		}
		r, err := bench.Scale(sizes, 32)
		if err != nil {
			return err
		}
		if err := emit("scale", "", r); err != nil {
			return err
		}
		if err := r.Check(rssBudget); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want table1, fig2, fig3, fig4, scaling, scale, robust, fault, ablation, ccr, hetero, contention, optimality, throughput, cache, or all)", *exp)
	}
	if traceClose != nil {
		if err := traceClose(); err != nil {
			return err
		}
	}

	if *jsonFlag {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Experiments []jsonExperiment `json:"experiments"`
		}{jsonOut}); err != nil {
			return err
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// parseCSV splits a result's CSV text into its header and data rows.
func parseCSV(s string) (columns []string, rows [][]string, err error) {
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(recs) == 0 {
		return nil, nil, nil
	}
	return recs[0], recs[1:], nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("processor count %d < 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}
