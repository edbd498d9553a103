package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"flb/internal/algo/fcp"
	"flb/internal/core"
	"flb/internal/graph"
	"flb/internal/machine"
	"flb/internal/memo"
	"flb/internal/schedule"
	"flb/internal/sim"
	"flb/internal/workload"
)

// The fig2-place workload is the paper's Fig. 2 matrix: LU, Laplace and
// stencil at V≈2000 with CCR 0.2 and 5, generated and frozen in set-up.
// Each op is one cold FLB placement on a reused arena; the ops of a round
// visit every instance on P = 2, 4, 8, 16 and 32 homogeneous processors
// and on one related machine (P = 32, two speed classes), so both the
// homogeneous and the speed-aware heap paths run.
var (
	fig2Families = []string{"lu", "laplace", "stencil"}
	fig2CCRs     = []float64{0.2, 5}
	fig2Procs    = []int{2, 4, 8, 16, 32}
)

// relatedSystem is a P-processor machine whose first half runs twice as
// fast as the second.
func relatedSystem(p int) machine.System {
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1
		if i < p/2 {
			speeds[i] = 2
		}
	}
	sys := machine.NewSystem(p)
	sys.Speeds = machine.CanonicalSpeeds(speeds)
	return sys
}

// problem is one (graph, machine) pair an op schedules.
type problem struct {
	g       *graph.Graph
	sys     machine.System
	related bool
}

// fig2State is the output of set-up: the frozen instances, the cells a
// round visits, and the arena.
type fig2State struct {
	cells []problem
	sc    *core.Scheduler
}

// fig2Setup generates and freezes the instances, sizes the arena and runs
// every cell once untimed. With a tracer it also records the builds and
// probes the graph layer on each instance.
func fig2Setup(o options, tr *tracer, l *layerSet) (*fig2State, error) {
	st := &fig2State{sc: core.NewScheduler(core.FLB{})}
	var bytesPerVE sample
	maxV := 0
	i := 0
	for _, fam := range fig2Families {
		for _, ccr := range fig2CCRs {
			id := tr.begin("workload.build."+fam, -1, -1)
			g, err := workload.Instance(fam, o.sizes.fig2V, ccr, nil, sim.DeriveSeed(o.seed, uint64(i)))
			tr.end(id)
			if err != nil {
				return nil, err
			}
			g.Freeze()
			if tr != nil {
				b, err := graphProbe(tr, g, i)
				if err != nil {
					return nil, err
				}
				bytesPerVE = append(bytesPerVE, b)
			}
			maxV = max(maxV, g.NumTasks())
			for _, p := range fig2Procs {
				st.cells = append(st.cells, problem{g: g, sys: machine.NewSystem(p)})
			}
			st.cells = append(st.cells, problem{g: g, sys: relatedSystem(32), related: true})
			i++
		}
	}
	if l != nil {
		l.median("graph.bytes_per_ve", bytesPerVE)
	}
	st.sc.Grow(maxV, 32)
	for _, c := range st.cells {
		if _, err := st.sc.Schedule(c.g, c.sys); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// graphProbe re-runs the public calls Freeze makes, in Freeze's order, on
// a fresh structural copy of g, each in its own span: adjacency (CSR plus
// the entry and exit sets built over it), topological order, bottom levels
// and validation. It returns the frozen copy's live-heap bytes per (V+E).
// g must be acyclic.
func graphProbe(tr *tracer, g *graph.Graph, op int) (float64, error) {
	before := liveHeap()
	c := g.Clone()
	id := tr.begin("graph.csr", op, -1)
	c.AdjModeInUse()
	c.EntryTasks()
	c.ExitTasks()
	tr.end(id)
	id = tr.begin("graph.topo", op, -1)
	_, err := c.TopoOrder()
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("graph probe on %s: %w", g.Name, err)
	}
	id = tr.begin("graph.levels", op, -1)
	c.BottomLevels()
	tr.end(id)
	id = tr.begin("graph.validate", op, -1)
	err = c.Validate()
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("graph probe: %w", err)
	}
	bytes := float64(liveHeap()) - float64(before)
	runtime.KeepAlive(c)
	return bytes / float64(c.NumTasks()+c.NumEdges()), nil
}

// digestWord folds a 64-bit word into an FNV-1a digest.
func digestWord(h, w uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= 1099511628211
		w >>= 8
	}
	return h
}

// digestAdd folds a makespan into the digest.
func digestAdd(h uint64, v float64) uint64 { return digestWord(h, math.Float64bits(v)) }

// roundChecker validates the ops of a closed loop: the first round records
// each cell's makespan and schedule length ratio, and folds the cell's
// input fingerprint and makespan into the digest; later rounds must
// reproduce the same makespans.
type roundChecker struct {
	makespan []float64
	slr      sample
	digest   uint64
}

func (c *roundChecker) check(r *report, round, cell int, s *schedule.Schedule) {
	mk := s.Makespan()
	if round == 0 {
		key := memo.KeyOf(s.Graph(), s.System(), "flb", 0)
		c.makespan = append(c.makespan, mk)
		c.slr = append(c.slr, s.ComputeMetrics().SLR)
		c.digest = digestAdd(digestWord(digestWord(c.digest, key.Full.Hi), key.Full.Lo), mk)
		return
	}
	if c.makespan[cell] != mk { // exact: FLB is deterministic
		r.wrong++
		r.notef("round %d cell %d: makespan %v differs from round 0's %v", round, cell, mk, c.makespan[cell])
	}
}

func runFig2(o options) (*report, error) {
	r := &report{workload: o.workload, trace: o.trace}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var st *fig2State
	setup, err := measureSetup(o.sizes.setupReps, func(last bool) error {
		var err error
		if last {
			st, err = fig2Setup(o, tr, &r.layers)
		} else {
			_, err = fig2Setup(o, nil, nil)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var prof *profiler
	if o.trace {
		if prof, err = startProfile(o.artifact("cpu", "pprof")); err != nil {
			return nil, err
		}
	}
	var (
		chk                    roundChecker
		ops, tracedOps         sample
		win                    windows
		place, placeHomo, fcpT sample
		placeNS                sample
		tasks, busy            float64
		allocs                 uint64
	)
	// Placement allocates next to nothing; the loop's garbage is the
	// harness's own (validation, FCP). It is collected between rounds, never
	// during an op, so op times do not include the harness's collections.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	gc0 := readGC()
	start := time.Now()
	// Whole rounds keep every cell equally represented. A traced run
	// alternates untraced and traced rounds, so tracing overhead is the
	// difference between the two halves. An untraced run times its later
	// set-ups between rounds, the k-th once k/(laterSetups+1) of the window
	// has passed.
	later := 0
	for round := 0; round == 0 || time.Since(start) < o.window() || (o.trace && round < 2); round++ {
		if !o.trace && later < o.sizes.laterSetups &&
			time.Since(start) >= time.Duration(later+1)*o.window()/time.Duration(o.sizes.laterSetups+1) {
			// With the collector on, as in the set-ups before the loop.
			debug.SetGCPercent(gcPercent)
			sec, err := laterSetup(func() error {
				_, err := fig2Setup(o, nil, nil)
				return err
			})
			debug.SetGCPercent(-1)
			if err != nil {
				return nil, err
			}
			setup = append(setup, sec)
			later++
		}
		runtime.GC()
		var t *tracer
		if o.trace && round%2 == 1 {
			t = tr
		}
		for ci, c := range st.cells {
			op := r.attempted
			r.attempted++
			a0 := heapAllocs()
			t0 := time.Now()
			oid := t.begin("op", op, -1)
			pid := t.begin("core.place", op, oid)
			s, err := st.sc.Schedule(c.g, c.sys)
			t.end(pid)
			t.end(oid)
			d := time.Since(t0)
			a1 := heapAllocs()
			if err == nil {
				err = s.Validate()
			}
			if err != nil {
				r.failed++
				r.notef("op %d: %v", op, err)
				continue
			}
			ms := float64(d.Nanoseconds()) / 1e6
			chk.check(r, round, ci, s)
			if t == nil {
				ops = append(ops, ms)
				win.add(ms, float64(c.g.NumTasks()), d.Seconds())
				tasks += float64(c.g.NumTasks())
				busy += d.Seconds()
				allocs += a1 - a0
				continue
			}
			tracedOps = append(tracedOps, ms)
			pd := float64(tr.spans[pid].End-tr.spans[pid].Start) / 1e6
			place = append(place, pd)
			placeNS = append(placeNS, pd*1e6/float64(c.g.NumTasks()))
			if !c.related {
				placeHomo = append(placeHomo, pd)
				fid := tr.begin("core.fcp", op, -1)
				_, err := fcp.FCP{}.Schedule(c.g, c.sys)
				tr.end(fid)
				if err != nil {
					return nil, fmt.Errorf("FCP: %w", err)
				}
				fcpT = append(fcpT, float64(tr.spans[fid].End-tr.spans[fid].Start)/1e6)
			}
		}
	}
	gc1 := readGC()
	r.digest = chk.digest
	if !o.trace {
		if err := r.endToEndMetrics(setup, ops, tasks, busy, allocs, chk.slr); err != nil {
			return nil, err
		}
		win.report(r, ops, tasks, busy)
		return r, nil
	}

	if err := prof.stop(); err != nil {
		return nil, err
	}
	l := &r.layers
	self := tr.selfMS()
	for _, fam := range []string{"lu", "stencil"} {
		l.median("workload.build_ms."+fam, self["workload.build."+fam])
	}
	for _, n := range []string{"csr", "topo", "levels", "validate"} {
		l.median("graph."+n+"_ms", self["graph."+n])
	}
	l.median("core.place_ms", place)
	l.median("core.place_ns_per_task", placeNS)
	l.set("core.flb_over_fcp", placeHomo.median()/fcpT.median(), len(fcpT),
		fmt.Sprintf("FLB %.4g ms / FCP %.4g ms, medians over homogeneous cells", placeHomo.median(), fcpT.median()))
	l.set("alloc_bytes_per_task", float64(allocs)/tasks, len(ops), "untraced rounds")
	l.set("gc.cycles", float64(gc1.cycles-gc0.cycles), 1, "over the measured loop, one forced per round")
	l.set("gc.pause_ms", float64(gc1.pauseNS-gc0.pauseNS)/1e6, int(gc1.cycles-gc0.cycles), "total over the measured loop")
	l.set("trace.overhead_pct", 100*(tracedOps.median()/ops.median()-1), len(tracedOps),
		fmt.Sprintf("op p50 traced %.4g ms vs untraced %.4g ms", tracedOps.median(), ops.median()))
	r.notef("check core.place share of op time: %.1f%% (want >= 80%%)", 100*self["core.place"].sum()/(self["core.place"].sum()+self["op"].sum()))

	var sink decisionSink
	st.sc.Observe(&sink)
	for _, c := range st.cells {
		if _, err := st.sc.Schedule(c.g, c.sys); err != nil {
			return nil, err
		}
	}
	st.sc.Observe(nil)
	sink.addTo(l)
	if err := prof.attribute(l); err != nil {
		return nil, err
	}
	return r, tr.write(o.artifact("spans", "json"))
}

// windows splits a closed loop's untraced ops, in time order, into
// consecutive windows of windowOps ops. On a host shared with other
// tenants, placement runs in a fast and a slow state that each last
// seconds, so a whole run's median lands on whichever state held for more
// than half of it. A window's medians reflect one state; the faster quarter
// of the windows gives the figure of the uncontended state, which a change
// to the program moves and the host's neighbours do not. A window's
// throughput is its median op's (tasks ÷ op time): a window's total tasks
// over its total time also counts the ops a preemption stretched, and
// across runs of the same code it spread further than the latency did.
type windows struct {
	cur, rates   sample
	medians, tps sample
}

func (w *windows) add(ms, tasks, sec float64) {
	w.cur = append(w.cur, ms)
	w.rates = append(w.rates, tasks/sec)
	if len(w.cur) == windowOps {
		w.medians = append(w.medians, w.cur.median())
		w.tps = append(w.tps, w.rates.median())
		*w = windows{medians: w.medians, tps: w.tps}
	}
}

// report replaces op_p50_ms and tasks_per_s with their fast-quarter
// window figures once the run holds at least four windows.
func (w *windows) report(r *report, ops sample, tasks, busy float64) {
	if len(w.medians) < 4 {
		return
	}
	r.e2e.set("op_p50_ms", w.medians.quantile(0.25), len(ops),
		fmt.Sprintf("first quartile of %d window medians of %d ops (min %.4g, max %.4g); median of all ops %.4g ms",
			len(w.medians), windowOps, w.medians.quantile(0), w.medians.quantile(1), ops.median()))
	r.e2e.set("tasks_per_s", w.tps.quantile(0.75), len(ops),
		fmt.Sprintf("third quartile of %d window median-op throughputs; all ops %.4g tasks/s", len(w.tps), tasks/busy))
}
