// Command flbsched schedules a task graph (in the module's text format)
// onto P processors with any of the implemented algorithms and reports the
// schedule, metrics, a Gantt chart, a Chrome trace or — for FLB — the
// paper-style execution trace.
//
// Usage:
//
//	flbsched -graph lu.tg -procs 8 -algo flb -gantt
//	flbsched -graph - -algo mcp -seed 3 -metrics      # graph on stdin
//	flbsched -graph fig1.tg -procs 2 -steps            # Table 1 layout
//	flbsched -demo -procs 2 -steps                     # built-in Fig. 1 graph
//	flbsched -demo -procs 2 -trace out.json            # Chrome Trace Event JSON
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"flb"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flbsched:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("flbsched", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "task graph file ('-' for stdin)")
		format    = fs.String("format", "", "input format: text or stg (default: by extension, .stg = STG)")
		demo      = fs.Bool("demo", false, "use the paper's Fig. 1 example graph")
		algoName  = fs.String("algo", "flb", "scheduling algorithm (see -list)")
		procs     = fs.Int("procs", 2, "number of processors")
		speedsArg = fs.String("speeds", "", "comma-separated per-processor speed factors, e.g. 2,2,1,1 (fewer than -procs entries are padded with 1; default homogeneous)")
		seed      = fs.Int64("seed", 1, "seed for randomized tie-breaking (mcp)")
		gantt     = fs.Bool("gantt", false, "print an ASCII Gantt chart")
		width     = fs.Int("width", 80, "Gantt chart width in characters")
		tbl       = fs.Bool("table", false, "print the per-task schedule table")
		metrics   = fs.Bool("metrics", true, "print schedule metrics")
		steps     = fs.Bool("steps", false, "print the FLB execution trace in the paper's Table 1 layout (flb only)")
		traceOut  = fs.String("trace", "", "write a Chrome Trace Event JSON file ('-' for stdout; open in chrome://tracing or Perfetto)")
		list      = fs.Bool("list", false, "list available algorithms and exit")
		stats     = fs.Bool("stats", false, "print task-graph statistics (width, granularity, parallelism)")
		jsonOut   = fs.String("json", "", "write the schedule as JSON to this file ('-' for stdout)")
		jitter    = fs.Float64("jitter", -1, "also simulate execution with +/- this cost jitter (0..1)")
		svgOut    = fs.String("svg", "", "write an SVG Gantt chart to this file")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, n := range flb.Algorithms() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	read := flb.ReadGraph
	switch {
	case *format == "stg" || (*format == "" && strings.HasSuffix(*graphPath, ".stg")):
		read = flb.ReadGraphSTG
	case *format != "" && *format != "text":
		return fmt.Errorf("unknown -format %q (want text or stg)", *format)
	}
	var g *flb.Graph
	switch {
	case *demo:
		g = flb.PaperExample()
	case *graphPath == "":
		return fmt.Errorf("missing -graph (or use -demo); run with -h for usage")
	case *graphPath == "-":
		var err error
		if g, err = read(stdin); err != nil {
			return err
		}
	default:
		f, err := os.Open(*graphPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if g, err = read(f); err != nil {
			return err
		}
	}

	sys := flb.NewSystem(*procs)
	if *speedsArg != "" {
		speeds, err := parseSpeeds(*speedsArg, *procs)
		if err != nil {
			return err
		}
		sys = flb.NewSystem(*procs, flb.WithSpeeds(speeds))
	}

	var observer flb.Observer
	var chrome *flb.ChromeTrace
	var traceFile *os.File
	if *traceOut != "" {
		w := io.Writer(stdout)
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			traceFile = f
			w = f
		}
		chrome = flb.NewChromeTrace(w)
		chrome.TaskNames = func(id int) string { return g.Task(id).Name }
		observer = chrome
	}

	var s *flb.Schedule
	if *steps {
		// The Table 1 layout is specific to FLB's decision events; -algo is
		// ignored here like it was by the old boolean -trace flag.
		var rows []flb.Step
		sched, err := flb.Run(g, flb.WithSystem(sys),
			flb.WithObserver(flb.TeeObservers(flb.NewStepRecorder(&rows), observer)))
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, flb.FormatTrace(rows, func(id int) string { return g.Task(id).Name }))
		s = sched
	} else {
		var err error
		s, err = flb.Run(g, flb.WithSystem(sys),
			flb.WithAlgorithm(*algoName), flb.WithSeed(*seed), flb.WithObserver(observer))
		if err != nil {
			return err
		}
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("internal error: produced schedule is invalid: %w", err)
	}
	if chrome != nil {
		// The timeline tracks come from an exact observed execution of the
		// schedule just produced.
		if _, err := flb.Execute(s, flb.WithSeed(*seed), flb.WithObserver(chrome)); err != nil {
			return err
		}
		if err := chrome.Close(); err != nil {
			return err
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				return err
			}
		}
	}

	if *metrics {
		m := s.ComputeMetrics()
		fmt.Fprintf(stdout, "algorithm   %s\ngraph       %s (V=%d, E=%d, CCR=%.3g, W=%d)\nprocessors  %d\nmakespan    %g\nspeedup     %.3f\nefficiency  %.3f\nSLR         %.3f\n",
			m.Algorithm, g.Name, g.NumTasks(), g.NumEdges(), g.CCR(), g.Width(), m.Procs,
			m.Makespan, m.Speedup, m.Efficiency, m.SLR)
	}
	if *tbl {
		fmt.Fprint(stdout, s.Table())
	}
	if *gantt {
		fmt.Fprint(stdout, s.Gantt(*width))
	}
	if *jitter >= 0 {
		if *jitter > 1 {
			return fmt.Errorf("-jitter %g out of range [0, 1]", *jitter)
		}
		exact, err := flb.Execute(s, flb.WithSeed(*seed))
		if err != nil {
			return err
		}
		jit, err := flb.Execute(s, flb.WithJitter(*jitter, *jitter), flb.WithSeed(*seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "simulated   exact %g, with +/-%g%% jitter %g (%.1f%% over planned)\n",
			exact.Makespan, *jitter*100, jit.Makespan, (jit.Makespan/s.Makespan()-1)*100)
	}
	if *stats {
		fmt.Fprint(stdout, g.ComputeStats(g.NumTasks() <= 5000).String())
	}
	if *jsonOut != "" {
		if *jsonOut == "-" {
			if err := s.WriteJSON(stdout); err != nil {
				return err
			}
		} else if err := writeFile(*jsonOut, s.WriteJSON); err != nil {
			return err
		}
	}
	if *svgOut != "" {
		if err := writeFile(*svgOut, func(w io.Writer) error { return s.WriteSVG(w, 900) }); err != nil {
			return err
		}
	}
	return nil
}

// parseSpeeds parses a comma-separated speed vector for p processors.
// Between 1 and p entries are accepted — missing trailing processors run
// at speed 1 — and every entry must be a finite number > 0.
func parseSpeeds(arg string, p int) ([]float64, error) {
	parts := strings.Split(arg, ",")
	if len(parts) > p {
		return nil, fmt.Errorf("-speeds has %d entries for %d processors", len(parts), p)
	}
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1
	}
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-speeds entry %q: %v", part, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("-speeds entry %d = %g, want finite and > 0", i, v)
		}
		speeds[i] = v
	}
	return speeds, nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
