package graph_test

import (
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// TestFormatFloatCoverage pins that the writer kernel covers WriteText:
// every weight of a workload graph, in any family, under either sampler
// and at CCR 0.1, 1 and 10, is formatted by the kernel, not by strconv.
func TestFormatFloatCoverage(t *testing.T) {
	for _, fam := range workload.Families() {
		for _, s := range []workload.Sampler{workload.Uniform02{}, workload.Exponential{}} {
			for _, ccr := range []float64{0.1, 1, 10} {
				g, err := workload.Instance(fam.Name, 300, ccr, s, 3)
				if err != nil {
					t.Fatal(err)
				}
				if miss := graph.KernelFallbacks(g); len(miss) > 0 {
					t.Errorf("%s (%s): %d weights left the kernel, first %v", g.Name, s.Name(), len(miss), miss[0])
				}
			}
		}
	}
}

// readCost returns the allocations and bytes of one ParseText of text,
// the least over several reads: a read that finds the reader pool empty
// (the race detector empties it at random) pays for its scratch once.
func readCost(t *testing.T, text string) (allocs, bytes uint64) {
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := graph.ParseText(text); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestReadTextAllocs pins what a read allocates with a warm reader pool:
// the graph's tasks and edges at their exact sizes, its CSR adjacency and
// topological order, and next to nothing else. A per-line allocation,
// the growth copies of the task and edge arrays or a fresh scanner
// buffer would each break it, at V≈2000 and at four times that.
func TestReadTextAllocs(t *testing.T) {
	for _, v := range []int{codecV, 4 * codecV} {
		g := codecGraph(t, "lu", v)
		allocs, bytes := readCost(t, g.TextString())
		n, e := uint64(g.NumTasks()), uint64(g.NumEdges())
		kept := n*uint64(unsafe.Sizeof(graph.Task{})) + e*uint64(unsafe.Sizeof(graph.Edge{})) +
			2*4*(n+1) + 2*4*e + n*uint64(unsafe.Sizeof(int(0)))
		if allocs > 14 {
			t.Errorf("ParseText at V=%d: %d allocs, want at most 14", n, allocs)
		}
		if bytes > kept+kept/10 {
			t.Errorf("ParseText at V=%d: %d bytes allocated, want at most 1.1 × the %d the graph keeps", n, bytes, kept)
		}
	}
}

// TestWriteTextAllocs pins that WriteText allocates one buffer, whatever
// the graph's size, and TextString the buffer and the string.
func TestWriteTextAllocs(t *testing.T) {
	g := codecGraph(t, "lu", codecV)
	if n := testing.AllocsPerRun(5, func() { _ = g.WriteText(io.Discard) }); n != 1 {
		t.Errorf("WriteText: %.0f allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(5, func() { _ = g.TextString() }); n != 2 {
		t.Errorf("TextString: %.0f allocs, want 2", n)
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
