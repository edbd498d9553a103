package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	g := paperGraph()
	g.tasks[2].Name = "pivot col"
	text := g.TextString()
	g2, err := ParseText(text)
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d",
			g2.NumTasks(), g2.NumEdges(), g.NumTasks(), g.NumEdges())
	}
	for id := 0; id < g.NumTasks(); id++ {
		if g2.Comp(id) != g.Comp(id) {
			t.Errorf("comp(%d) changed: %v vs %v", id, g2.Comp(id), g.Comp(id))
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g2.Edge(i) != g.Edge(i) {
			t.Errorf("edge %d changed: %+v vs %+v", i, g2.Edge(i), g.Edge(i))
		}
	}
	if g2.Name != "fig1" {
		t.Errorf("name changed: %q", g2.Name)
	}
	// Spaces in names are sanitized, not lost entirely.
	if g2.Task(2).Name != "pivot_col" {
		t.Errorf("task name = %q, want pivot_col", g2.Task(2).Name)
	}
}

func TestTextRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 40)
		g2, err := ParseText(g.TextString())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g2.TextString() != g.TextString() {
			t.Fatalf("trial %d: round trip not idempotent", trial)
		}
	}
}

func TestParseTextComments(t *testing.T) {
	src := `
# leading comment
graph demo
task 0 1.5 producer  # trailing comment
task 1 2 _
edge 0 1 0.25
`
	g, err := ParseText(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "demo" || g.NumTasks() != 2 || g.NumEdges() != 1 {
		t.Fatalf("parsed %q with %d tasks %d edges", g.Name, g.NumTasks(), g.NumEdges())
	}
	if g.Task(0).Name != "producer" || g.Task(1).Name != "t1" {
		t.Errorf("names = %q, %q", g.Task(0).Name, g.Task(1).Name)
	}
	if g.Edge(0).Comm != 0.25 {
		t.Errorf("comm = %v", g.Edge(0).Comm)
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown directive", "frobnicate 1 2\n"},
		{"task arity", "task 0\n"},
		{"task bad id", "task x 1\n"},
		{"task bad comp", "task 0 abc\n"},
		{"task non-dense", "task 1 1\n"},
		{"edge arity", "task 0 1\nedge 0 0\n"},
		{"edge bad from", "task 0 1\nedge x 0 1\n"},
		{"edge bad to", "task 0 1\nedge 0 x 1\n"},
		{"edge bad comm", "task 0 1\ntask 1 1\nedge 0 1 x\n"},
		{"edge unknown task", "task 0 1\nedge 0 5 1\n"},
		{"graph arity", "graph a b\n"},
		{"cycle", "task 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\n"},
		{"negative comp", "task 0 -1\n"},
		{"NaN comp", "task 0 NaN\n"},
		{"Inf comp", "task 0 Inf\n"},
		{"negative Inf comp", "task 0 -Inf\n"},
		{"overflowing comp", "task 0 1e309\n"},
		{"NaN comm", "task 0 1\ntask 1 1\nedge 0 1 NaN\n"},
		{"Inf comm", "task 0 1\ntask 1 1\nedge 0 1 Inf\n"},
		{"negative comm", "task 0 1\ntask 1 1\nedge 0 1 -2\n"},
		{"negative edge endpoint", "task 0 1\nedge -1 0 1\n"},
	}
	for _, c := range cases {
		if _, err := ParseText(c.src); err == nil {
			t.Errorf("%s: ParseText accepted %q", c.name, c.src)
		}
	}
}

// TestParseTextDuplicateEdge pins the parser-level rejection of duplicate
// edges: the error must name the duplicating line and the first
// declaration, which post-hoc Validate cannot do.
func TestParseTextDuplicateEdge(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"same weight", "task 0 1\ntask 1 1\nedge 0 1 1\nedge 0 1 1\n"},
		{"conflicting weight", "task 0 1\ntask 1 1\nedge 0 1 1\nedge 0 1 2\n"},
	}
	for _, c := range cases {
		_, err := ParseText(c.src)
		if err == nil {
			t.Fatalf("%s: ParseText accepted duplicate edge %q", c.name, c.src)
		}
		msg := err.Error()
		for _, want := range []string{"line 4", "duplicate edge 0->1", "line 3"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q missing %q", c.name, msg, want)
			}
		}
	}
	// Same endpoints in a reconvergent diamond are fine: 0->1, 0->2 is not
	// a duplicate, and neither is a second edge sharing only one endpoint.
	if _, err := ParseText("task 0 1\ntask 1 1\ntask 2 1\nedge 0 1 1\nedge 0 2 1\nedge 1 2 1\n"); err != nil {
		t.Fatalf("ParseText rejected distinct edges: %v", err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := paperGraph()
	var b strings.Builder
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"digraph \"fig1\"",
		"n0 [label=\"t0\\n2\"]",
		"n0 -> n2 [label=\"4\"]",
		"n6 -> n7 [label=\"2\"]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTEmptyName(t *testing.T) {
	g := New("")
	g.AddTask(1)
	var b strings.Builder
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "digraph \"taskgraph\"") {
		t.Errorf("DOT default name missing:\n%s", b.String())
	}
}

// TestTextRoundTripSpaceNames pins that WriteText output reads back when
// task and graph names hold any rune the reader splits on: every
// unicode.IsSpace rune, and '#', is written as '_'. A name that is one
// such rune becomes the "_" placeholder and reads back unnamed.
func TestTextRoundTripSpaceNames(t *testing.T) {
	for _, sep := range []string{" ", "\t", "\n", "\r", "\v", "\f", "#", "\u0085", "\u00a0", "\u2000", "\u2028", "\u3000"} {
		g := New("g" + sep + "name")
		g.AddNamedTask("a"+sep+"b", 1)
		g.AddNamedTask(sep, 2)
		g.AddEdge(0, 1, 3)
		g2, err := ParseText(g.TextString())
		if err != nil {
			t.Fatalf("name with %q: WriteText output does not read back: %v\n%s", sep, err, g.TextString())
		}
		if g2.Name != "g_name" || g2.Task(0).Name != "a_b" || g2.Task(1).Name != "t1" {
			t.Errorf("name with %q: read back graph %q, tasks %q and %q", sep, g2.Name, g2.Task(0).Name, g2.Task(1).Name)
		}
	}
}

// TestNextFieldMatchesFields pins the readers' splitter to strings.Fields
// with every kind of byte at every offset of a long field, where the
// eight-byte skip and the byte loop hand over.
func TestNextFieldMatchesFields(t *testing.T) {
	specials := []string{" ", "\t", "\n", "\v", "\f", "\r", "\x00", "\x1f", "!", "\x7f", "\x80", "\xff",
		"\u0085", "\u00a0", "\u2000", "\u3000", "\u00e9", "\xe2\x80", "  ", " \u00a0\t"}
	for _, sp := range specials {
		for off := 0; off <= 20; off++ {
			for _, src := range []string{
				strings.Repeat("a", off) + sp + strings.Repeat("b", 20-off),
				sp + strings.Repeat("c", off) + sp + sp + "d" + sp,
				strings.Repeat("e", off) + sp + "1.2345678901234567" + sp + strings.Repeat("f", 9),
			} {
				var got []string
				for tok, rest := nextField([]byte(src)); len(tok) > 0; tok, rest = nextField(rest) {
					got = append(got, string(tok))
				}
				if want := strings.Fields(src); !slices.Equal(got, want) {
					t.Fatalf("nextField splits %q into %q, strings.Fields into %q", src, got, want)
				}
			}
		}
	}
}
