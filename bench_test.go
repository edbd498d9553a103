// Benchmarks, one per table/figure of the paper's evaluation. They time
// the computational kernel behind each experiment on paper-sized inputs
// (V ≈ 2000, the figures' most demanding processor count P = 32);
// cmd/flbbench prints the corresponding rows/series.
package flb_test

import (
	"context"
	"testing"

	"flb"
	"flb/internal/bench"
)

// instance returns one paper-sized randomized workload.
func instance(b *testing.B, family string, ccr float64) *flb.Graph {
	b.Helper()
	g, err := flb.WorkloadInstance(family, 2000, ccr, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func runAlgo(b *testing.B, name string, g *flb.Graph, procs int) {
	b.Helper()
	a, err := flb.NewAlgorithm(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys := flb.NewSystem(procs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Schedule(g, sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Trace times the §5 reproduction: FLB with full tracing on
// the Fig. 1 example graph.
func BenchmarkTable1Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 2 — scheduling cost of each measured algorithm (LU, V≈2000, P=32,
// the rightmost point of the paper's figure).
func BenchmarkFig2_FLB(b *testing.B)    { runAlgo(b, "flb", instance(b, "lu", 1), 32) }
func BenchmarkFig2_FCP(b *testing.B)    { runAlgo(b, "fcp", instance(b, "lu", 1), 32) }
func BenchmarkFig2_MCP(b *testing.B)    { runAlgo(b, "mcp", instance(b, "lu", 1), 32) }
func BenchmarkFig2_DSCLLB(b *testing.B) { runAlgo(b, "dsc-llb", instance(b, "lu", 1), 32) }
func BenchmarkFig2_ETF(b *testing.B)    { runAlgo(b, "etf", instance(b, "lu", 1), 32) }

// Fig. 3 — FLB speedup inputs: one benchmark per problem family at the
// figure's largest machine (P=32), both CCR regimes.
func BenchmarkFig3_LU_CCR02(b *testing.B)      { runAlgo(b, "flb", instance(b, "lu", 0.2), 32) }
func BenchmarkFig3_LU_CCR5(b *testing.B)       { runAlgo(b, "flb", instance(b, "lu", 5), 32) }
func BenchmarkFig3_Laplace_CCR02(b *testing.B) { runAlgo(b, "flb", instance(b, "laplace", 0.2), 32) }
func BenchmarkFig3_Laplace_CCR5(b *testing.B)  { runAlgo(b, "flb", instance(b, "laplace", 5), 32) }
func BenchmarkFig3_Stencil_CCR02(b *testing.B) { runAlgo(b, "flb", instance(b, "stencil", 0.2), 32) }
func BenchmarkFig3_Stencil_CCR5(b *testing.B)  { runAlgo(b, "flb", instance(b, "stencil", 5), 32) }
func BenchmarkFig3_FFT_CCR5(b *testing.B)      { runAlgo(b, "flb", instance(b, "fft", 5), 32) }

// Fig. 4 — normalized schedule length inputs: the reference MCP run plus
// each compared algorithm on the same instance (Laplace, CCR 5, P=16 — a
// regime where the paper highlights FLB beating MCP).
func BenchmarkFig4_Reference_MCP(b *testing.B) { runAlgo(b, "mcp", instance(b, "laplace", 5), 16) }
func BenchmarkFig4_FLB(b *testing.B)           { runAlgo(b, "flb", instance(b, "laplace", 5), 16) }
func BenchmarkFig4_ETF(b *testing.B)           { runAlgo(b, "etf", instance(b, "laplace", 5), 16) }
func BenchmarkFig4_FCP(b *testing.B)           { runAlgo(b, "fcp", instance(b, "laplace", 5), 16) }
func BenchmarkFig4_DSCLLB(b *testing.B)        { runAlgo(b, "dsc-llb", instance(b, "laplace", 5), 16) }

// BenchmarkExecute times one self-timed execution of an FLB schedule (LU,
// V≈2000, P=8): without options, and with the WithContext +
// WithFaults(zero plan) pair flbd passes for every execute=1 request.
func BenchmarkExecute(b *testing.B) {
	s, err := flb.Run(instance(b, "lu", 1), flb.WithSystem(flb.NewSystem(8)))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts []flb.Option
	}{
		{"fault-free", nil},
		{"context-faults", []flb.Option{flb.WithContext(context.Background()), flb.WithFaults(flb.FaultPlan{})}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := flb.Execute(s, bc.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Complexity scaling (§4.2): FLB on a double-size graph — the per-task
// cost should stay near the V=2000 benchmarks above (log factors only).
func BenchmarkScaling_FLB_V4000(b *testing.B) {
	g, err := flb.WorkloadInstance("lu", 4000, 1, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, _ := flb.NewAlgorithm("flb", 1)
	sys := flb.NewSystem(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Schedule(g, sys); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks (DESIGN.md §5): cost of FLB's tie-breaking design
// choices. Compare the reported makespans (logged once per benchmark) and
// ns/op against BenchmarkFig4_FLB.
func BenchmarkAblation_FLB_NoBLTieBreak(b *testing.B) {
	runAlgo(b, "flb-nobl", instance(b, "laplace", 5), 16)
}

func BenchmarkAblation_FLB_PreferEPOnTie(b *testing.B) {
	runAlgo(b, "flb-eptie", instance(b, "laplace", 5), 16)
}
