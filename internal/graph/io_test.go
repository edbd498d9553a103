package graph

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
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

// TestReadFailureMidLine feeds both readers an input whose read fails
// partway: the scanner then hands over the line the failure cut short as
// its last token, and leaves the lines after it missing. Whatever the
// cut did to the parse, the error must be the read's own.
func TestReadFailureMidLine(t *testing.T) {
	errCut := errors.New("read cut short")
	cases := []struct {
		name, prefix string
		read         func(io.Reader) (*Graph, error)
	}{
		{"text: inside a task line", "graph g\ntask 0 1\ntas", ReadText},
		{"text: inside an edge line", "task 0 1\ntask 1 1\nedge 0", ReadText},
		{"text: between lines", "task 0 1\ntask 1 1\nedge 0 1 2\n", ReadText},
		{"stg: inside a task line", "3\n0 1 0\n1 1 1", ReadSTG},
		{"stg: a task line cut to a valid one", "3\n0 1 0\n1 1 1 0 4", ReadSTG},
		{"stg: between task lines", "3\n0 1 0\n", ReadSTG},
	}
	for _, tc := range cases {
		_, err := tc.read(io.MultiReader(strings.NewReader(tc.prefix), iotest.ErrReader(errCut)))
		if !errors.Is(err, errCut) {
			t.Errorf("%s: error %v, want one wrapping the read error", tc.name, err)
		}
	}
}

// TestReadTextBlocks checks the block reader against the line-at-a-time
// oracle where blocks matter: inputs past the scanner's 64 KiB first
// buffer, read in pieces of every size, LF and CRLF lines, lines off the
// canonical path between canonical ones, no final newline, a line that
// grows the buffer, one over the 4 MiB cap, and reads cut short at many
// places.
func TestReadTextBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	b.WriteString("graph blocks\n")
	const n = 3000
	for i := 0; i < n; i++ {
		name := "_"
		if i%5 == 0 {
			name = "t" + strconv.Itoa(i)
		}
		fmt.Fprintf(&b, "task %d %s %s\n", i, strconv.FormatFloat(rng.Float64()*2, 'g', -1, 64), name)
		if i%97 == 0 {
			b.WriteString("# a comment\n\n")
		}
	}
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "edge %d %d %s\n", i-1, i, strconv.FormatFloat(rng.ExpFloat64(), 'g', -1, 64))
		if i%89 == 0 {
			fmt.Fprintf(&b, "edge\t%d %d  0.5\n", rng.Intn(i-1), i)
		}
	}
	lf := b.String()
	longName := strings.Replace(lf, "task 7 ", "task 7 1 "+strings.Repeat("n", 100<<10)+"\ntask 7 ", 1)
	longName = strings.Replace(longName, "\ntask 7 ", "\n", 1) // task 7 now carries the long name
	inputs := map[string]string{
		"lf":               lf,
		"crlf":             strings.ReplaceAll(lf, "\n", "\r\n"),
		"no final newline": strings.TrimSuffix(lf, "\n"),
		"a 100 KiB line":   longName,
		"a 5 MiB line":     lf + "task 9999 1 " + strings.Repeat("x", 5<<20) + "\n",
	}
	readers := map[string]func(string) io.Reader{
		"whole":    func(s string) io.Reader { return strings.NewReader(s) },
		"halves":   func(s string) io.Reader { return iotest.HalfReader(strings.NewReader(s)) },
		"data+EOF": func(s string) io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
		"bytes": func(s string) io.Reader {
			if len(s) > 1<<20 {
				return strings.NewReader(s) // a byte at a time is too slow here
			}
			return iotest.OneByteReader(strings.NewReader(s))
		},
	}
	compare := func(what string, mk func() io.Reader) {
		t.Helper()
		want, wantErr := oracleReadTextLimits(mk(), Limits{})
		got, gotErr := ReadTextLimits(mk(), Limits{})
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Errorf("%s: got error %v, oracle %v", what, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%s: got error %q, oracle %q", what, gotErr, wantErr)
			}
		case got.TextString() != want.TextString():
			t.Errorf("%s: the graphs differ", what)
		}
	}
	for in, src := range inputs {
		for rd, mk := range readers {
			compare(in+", "+rd, func() io.Reader { return mk(src) })
		}
	}
	// The oracle reports the line a failed read cuts short; the reader
	// reports the read (TestReadFailureMidLine), wherever the cut falls.
	errCut := errors.New("read cut short")
	for _, cut := range []int{1, 4095, 65535, 65536, 65537, 70001, len(lf) / 2, len(lf) - 1} {
		for in, src := range map[string]string{"lf": lf, "crlf": inputs["crlf"]} {
			_, err := ReadText(io.MultiReader(strings.NewReader(src[:cut]), iotest.ErrReader(errCut)))
			if !errors.Is(err, errCut) {
				t.Errorf("%s cut at %d: error %v, want one wrapping the read error", in, cut, err)
			}
		}
	}
}
