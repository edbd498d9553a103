package graph_test

import (
	"io"
	"math"
	"strings"
	"testing"

	"flb/internal/graph"
	"flb/internal/workload"
)

// codecFamilies are the families the codec benchmarks run over, at the
// V≈2000 size of the flbd request trace.
var codecFamilies = []string{"lu", "stencil", "fft", "laplace"}

const codecV = 2000

func codecGraph(tb testing.TB, family string, v int) *graph.Graph {
	tb.Helper()
	g, err := workload.Instance(family, v, 1, nil, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestWriteTextMatchesFmt pins WriteText byte-identical to the fmt-based
// writer on every workload family, under both weight samplers, and on
// the float values whose formatting has special cases.
func TestWriteTextMatchesFmt(t *testing.T) {
	var graphs []*graph.Graph
	for _, fam := range workload.Families() {
		for _, s := range []workload.Sampler{workload.Uniform02{}, workload.Exponential{}} {
			g, err := workload.Instance(fam.Name, 300, 5, s, 3)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	special := graph.New("special cases")
	for _, c := range []float64{0, math.Copysign(0, -1), 5e-324, 1e21, 1e-7, 123456789, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		special.AddNamedTask("n#1 x", c)
		special.AddTask(-c)
	}
	special.AddEdge(0, 1, 0.1)
	special.AddEdge(1, 2, math.Inf(1))
	graphs = append(graphs, special, graph.New(""))
	for _, g := range graphs {
		var want strings.Builder
		if err := graph.OracleWriteText(g, &want); err != nil {
			t.Fatal(err)
		}
		if got := g.TextString(); got != want.String() {
			t.Errorf("%s: WriteText differs from the fmt writer:\n got: %.200q\nwant: %.200q", g.Name, got, want.String())
		}
	}
}

// TestCanonicalCoverage pins that the fast path covers WriteText: no
// task or edge line of a workload graph, in any family, under either
// sampler and at CCR 0.1, 1 and 10, is left to the general decoder.
// Small weights such as 0.00018989106673779932, whose leading fraction
// zeros are not significant, are the case this guards.
func TestCanonicalCoverage(t *testing.T) {
	for _, fam := range workload.Families() {
		for _, s := range []workload.Sampler{workload.Uniform02{}, workload.Exponential{}} {
			for _, ccr := range []float64{0.1, 1, 10} {
				g, err := workload.Instance(fam.Name, 300, ccr, s, 3)
				if err != nil {
					t.Fatal(err)
				}
				if misses := graph.CanonicalMisses(g.TextString()); len(misses) > 0 {
					t.Errorf("%s (%s): %d lines left the fast path, first %q", g.Name, s.Name(), len(misses), misses[0])
				}
			}
		}
	}
}

// TestReadTextAllocs pins that reading a line allocates nothing: a
// payload four times larger may cost only the extra growth steps of the
// task, edge and line-index slices. Past a few hundred elements append
// grows a slice by about 1.25x a step, so 4x is about six steps each; a
// per-line allocation would add thousands.
func TestReadTextAllocs(t *testing.T) {
	allocs := func(v int) float64 {
		text := codecGraph(t, "lu", v).TextString()
		return testing.AllocsPerRun(5, func() {
			if _, err := graph.ParseText(text); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(codecV), allocs(4*codecV)
	if small >= 100 {
		t.Errorf("ParseText at V≈%d: %.0f allocs, want < 100", codecV, small)
	}
	if large-small > 24 {
		t.Errorf("ParseText allocs grow from %.0f at V≈%d to %.0f at V≈%d; per-line allocations are back", small, codecV, large, 4*codecV)
	}
}

func BenchmarkReadText(b *testing.B) {
	for _, fam := range codecFamilies {
		text := codecGraph(b, fam, codecV).TextString()
		b.Run(fam, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.ReadTextLimits(strings.NewReader(text), graph.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteText(b *testing.B) {
	for _, fam := range codecFamilies {
		g := codecGraph(b, fam, codecV)
		b.Run(fam, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := g.WriteText(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
