// Robustness: compile-time schedules are built from *estimated* costs;
// at run time the actual costs deviate. This example schedules an LU
// instance with every algorithm, then executes each schedule self-timed
// with actual costs jittered by ±eps, and reports how much of the planned
// makespan survives contact with reality — including whether the cheap
// schedulers (FLB, FCP) degrade any worse than the expensive ones.
//
// Run with: go run ./examples/robustness [-v 400] [-procs 8] [-eps 0.3]
package main

import (
	"flag"
	"fmt"
	"log"

	"flb"
)

func main() {
	targetV := flag.Int("v", 400, "approximate task count")
	procs := flag.Int("procs", 8, "number of processors")
	eps := flag.Float64("eps", 0.3, "runtime cost jitter (fraction, 0..1)")
	draws := flag.Int("draws", 20, "simulated executions per schedule")
	seed := flag.Int64("seed", 1, "instance seed")
	flag.Parse()

	g, err := flb.WorkloadInstance("lu", *targetV, 1.0, nil, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LU instance: V=%d E=%d CCR=%.2g, P=%d, jitter ±%g%%, %d draws\n\n",
		g.NumTasks(), g.NumEdges(), g.CCR(), *procs, *eps*100, *draws)
	fmt.Printf("%-10s %10s %12s %12s %10s\n",
		"algorithm", "planned", "actual(mean)", "actual(max)", "slowdown")

	for _, name := range flb.Algorithms() {
		s, err := flb.Run(g, flb.WithSystem(flb.NewSystem(*procs)),
			flb.WithAlgorithm(name), flb.WithSeed(*seed))
		if err != nil {
			log.Fatal(err)
		}
		planned := s.Makespan()
		if s.HasDuplicates() {
			// The self-timed simulator does not define semantics for
			// redundant copies; report the planned makespan only.
			fmt.Printf("%-10s %10.1f %12s %12s %10s\n", s.Algorithm, planned, "(dup)", "(dup)", "-")
			continue
		}
		var sum, max float64
		for d := 0; d < *draws; d++ {
			r, err := flb.Execute(s, flb.WithJitter(*eps, *eps), flb.WithSeed(*seed+int64(d)))
			if err != nil {
				log.Fatal(err)
			}
			sum += r.Makespan
			if r.Makespan > max {
				max = r.Makespan
			}
		}
		mean := sum / float64(*draws)
		fmt.Printf("%-10s %10.1f %12.1f %12.1f %9.1f%%\n",
			s.Algorithm, planned, mean, max, (mean/planned-1)*100)
	}
	fmt.Println("\nslowdown = mean actual makespan over the planned one, minus 1.")
}
