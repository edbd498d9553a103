package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// The reference codec: the line-at-a-time text reader built on sc.Text,
// strings.Fields and a per-edge duplicate map, its STG counterpart, and
// the fmt-based text writer. The production codec must accept and reject
// exactly the inputs these do, with byte-identical error text, and write
// byte-identical output; the oracle fuzz targets below check both.

// OracleWriteText exposes the reference writer to the external test
// package, whose workload-family tests cannot reach unexported names.
var OracleWriteText = oracleWriteText

// oracleWriteText is the fmt-based text writer.
func oracleWriteText(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %s\n", sanitizeName(g.Name))
	for _, t := range g.tasks {
		fmt.Fprintf(bw, "task %d %g %s\n", t.ID, t.Comp, sanitizeName(t.Name))
	}
	for _, e := range g.edges {
		fmt.Fprintf(bw, "edge %d %d %g\n", e.From, e.To, e.Comm)
	}
	return bw.Flush()
}

// oracleReadTextLimits is the reference text reader.
func oracleReadTextLimits(r io.Reader, lim Limits) (*Graph, error) {
	lim = lim.Normalized()
	g := New("")
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	edgeLine := make(map[[2]int]int)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph text line %d: want 'graph <name>', got %q", lineNo, line)
			}
			if fields[1] != "_" {
				g.Name = fields[1]
			}
		case "task":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("graph text line %d: want 'task <id> <comp> [name]', got %q", lineNo, line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph text line %d: bad task id %q: %w", lineNo, fields[1], err)
			}
			comp, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph text line %d: bad comp %q: %w", lineNo, fields[2], err)
			}
			if err := checkWeight(comp); err != nil {
				return nil, fmt.Errorf("graph text line %d: task %s: %w", lineNo, fields[1], err)
			}
			if id != g.NumTasks() {
				return nil, fmt.Errorf("graph text line %d: task ids must be dense and increasing; got %d, want %d", lineNo, id, g.NumTasks())
			}
			if err := lim.checkTasks(g.NumTasks() + 1); err != nil {
				return nil, fmt.Errorf("graph text line %d: %w", lineNo, err)
			}
			nid := g.AddTask(comp)
			if len(fields) == 4 && fields[3] != "_" {
				g.tasks[nid].Name = fields[3]
			}
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph text line %d: want 'edge <from> <to> <comm>', got %q", lineNo, line)
			}
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph text line %d: bad edge source %q: %w", lineNo, fields[1], err)
			}
			to, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph text line %d: bad edge target %q: %w", lineNo, fields[2], err)
			}
			comm, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph text line %d: bad comm %q: %w", lineNo, fields[3], err)
			}
			if err := checkWeight(comm); err != nil {
				return nil, fmt.Errorf("graph text line %d: edge %s->%s: %w", lineNo, fields[1], fields[2], err)
			}
			if from < 0 || from >= g.NumTasks() || to < 0 || to >= g.NumTasks() {
				return nil, fmt.Errorf("graph text line %d: edge %d->%d references unknown task", lineNo, from, to)
			}
			if first, dup := edgeLine[[2]int{from, to}]; dup {
				return nil, fmt.Errorf("graph text line %d: duplicate edge %d->%d (first declared on line %d)", lineNo, from, to, first)
			}
			if err := lim.checkEdges(g.NumEdges() + 1); err != nil {
				return nil, fmt.Errorf("graph text line %d: %w", lineNo, err)
			}
			edgeLine[[2]int{from, to}] = lineNo
			g.AddEdge(from, to, comm)
		default:
			return nil, fmt.Errorf("graph text line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph text: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// oracleReadSTGLimits is the reference STG reader.
func oracleReadSTGLimits(r io.Reader, lim Limits) (*Graph, error) {
	lim = lim.Normalized()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	readLine := func() ([]string, bool) {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			fields := strings.Fields(line)
			if len(fields) > 0 {
				return fields, true
			}
		}
		return nil, false
	}

	head, ok := readLine()
	if !ok {
		return nil, fmt.Errorf("graph stg: empty input")
	}
	if len(head) != 1 {
		return nil, fmt.Errorf("graph stg: first line must be the task count, got %q", strings.Join(head, " "))
	}
	n, err := strconv.Atoi(head[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("graph stg: bad task count %q", head[0])
	}
	if err := lim.checkTasks(n); err != nil {
		return nil, fmt.Errorf("graph stg: %w", err)
	}

	g := NewWithCapacity("stg", n, 0)
	for i := 0; i < n; i++ {
		g.AddTask(0)
	}
	weighted := -1
	seenPred := make(map[int]struct{})
	for i := 0; i < n; i++ {
		fields, ok := readLine()
		if !ok {
			return nil, fmt.Errorf("graph stg: expected %d task lines, got %d", n, i)
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("graph stg: task line %d too short: %q", i, strings.Join(fields, " "))
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id != i {
			return nil, fmt.Errorf("graph stg: task ids must be dense from 0; line %d has id %q", i, fields[0])
		}
		comp, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("graph stg: bad processing time %q on task %d", fields[1], id)
		}
		if err := checkWeight(comp); err != nil {
			return nil, fmt.Errorf("graph stg: task %d: %w", id, err)
		}
		g.SetComp(id, comp)
		npred, err := strconv.Atoi(fields[2])
		if err != nil || npred < 0 {
			return nil, fmt.Errorf("graph stg: bad predecessor count %q on task %d", fields[2], id)
		}
		rest := fields[3:]
		if npred > 0 && weighted == -1 {
			switch len(rest) {
			case npred:
				weighted = 0
			case 2 * npred:
				weighted = 1
			default:
				return nil, fmt.Errorf("graph stg: task %d has %d predecessor tokens for %d predecessors", id, len(rest), npred)
			}
		}
		want := npred
		if weighted == 1 {
			want = 2 * npred
		}
		if len(rest) != want {
			return nil, fmt.Errorf("graph stg: task %d has %d predecessor tokens, want %d", id, len(rest), want)
		}
		clear(seenPred)
		for j := 0; j < npred; j++ {
			var predTok, commTok string
			if weighted == 1 {
				predTok, commTok = rest[2*j], rest[2*j+1]
			} else {
				predTok, commTok = rest[j], "0"
			}
			pred, err := strconv.Atoi(predTok)
			if err != nil || pred < 0 || pred >= n {
				return nil, fmt.Errorf("graph stg: task %d has bad predecessor %q", id, predTok)
			}
			if _, dup := seenPred[pred]; dup {
				return nil, fmt.Errorf("graph stg: task %d lists predecessor %d twice", id, pred)
			}
			seenPred[pred] = struct{}{}
			comm, err := strconv.ParseFloat(commTok, 64)
			if err != nil {
				return nil, fmt.Errorf("graph stg: task %d has bad comm %q", id, commTok)
			}
			if err := checkWeight(comm); err != nil {
				return nil, fmt.Errorf("graph stg: edge %s->%d: %w", predTok, id, err)
			}
			if err := lim.checkEdges(g.NumEdges() + 1); err != nil {
				return nil, fmt.Errorf("graph stg: %w", err)
			}
			g.AddEdge(pred, id, comm)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph stg: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// oracleLimits maps fuzzed limit values onto Limits. A zero still selects
// the default and a negative value still disables a limit, except that
// the STG task limit stays bounded: an STG header pre-sizes storage for
// its declared count, so an unlimited fuzzed header could ask both
// readers for billions of tasks.
func oracleLimits(maxTasks, maxEdges int, stg bool) Limits {
	if stg && (maxTasks < 0 || maxTasks > DefaultMaxTasks) {
		maxTasks = DefaultMaxTasks
	}
	return Limits{MaxTasks: maxTasks, MaxEdges: maxEdges}
}

// checkOracle compares one production read against the reference read
// of the same input: the same accept/reject decision, identical error
// text, the same ErrTooLarge classification, and for accepted graphs
// identical WriteText bytes, which must also equal the reference
// writer's.
func checkOracle(t *testing.T, src string, lim Limits, got, want *Graph, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("accept/reject differs on %q under %+v:\n got err:  %v\nwant err: %v", src, lim, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("error text differs on %q under %+v:\n got: %s\nwant: %s", src, lim, gotErr, wantErr)
		}
		if g, w := errors.Is(gotErr, ErrTooLarge), errors.Is(wantErr, ErrTooLarge); g != w {
			t.Fatalf("errors.Is(err, ErrTooLarge) = %v, want %v on %q (err: %v)", g, w, src, gotErr)
		}
		return
	}
	var ref strings.Builder
	if err := oracleWriteText(want, &ref); err != nil {
		t.Fatal(err)
	}
	if text := got.TextString(); text != ref.String() {
		t.Fatalf("accepted graphs differ on %q under %+v:\n got:\n%s\nwant:\n%s", src, lim, text, ref.String())
	}
}

// FuzzReadTextOracle checks ReadTextLimits against the reference reader.
func FuzzReadTextOracle(f *testing.F) {
	for _, s := range []string{
		// FuzzReadText's seed corpus.
		"",
		"graph g\ntask 0 1\n",
		"task 0 1\ntask 1 2\nedge 0 1 3\n",
		"# only a comment\n",
		"task 0 1 name\nedge 0 0 1\n",
		"task 0 -1\n",
		"garbage here\n",
		"task 0 1\nedge 0 9 1\n",
		"task 0 1e309\n",
		"task 0 NaN\n",
		"task 0 Inf\n",
		"task 0 -Inf\n",
		"task 0 1\ntask 1 1\nedge 0 1 NaN\n",
		"task 0 1\ntask 1 1\nedge 0 1 Inf\n",
		"task 0 1\ntask 1 1\nedge 0 1 -2\n",
		"task 0 1\nedge -1 0 1\n",
		"graph a\ntask 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\n",
		"task 0 1\ntask 1 1\nedge 0 1 1\nedge 0 1 1\n",
		"task 0 1\ntask 1 1\nedge 0 1 1\nedge 0 1 2\n",
		// Non-ASCII whitespace separates fields like ASCII whitespace.
		"graph\u00a0g\ntask\u20000\u00851 a\u3000\n",
		"task 0 1 a\u00a0b\n",
		"task 0 1\vx\ftail\r\n",
		"task\t0\t1\ntask 1 1\nedge 0\u20281 2\n",
		// Invalid UTF-8 bytes are field content, never separators.
		"task 0 1 \xff\xfe\ntask 1 \xc2 1\n",
		"graph \xe2\x80\n",
		// '+'-signed numbers parse; a '+' before a name does not matter.
		"task +0 +1.5 +x\ntask +1 1\nedge +0 +1 +2e-3\n",
		"task 0 0x1p-2\ntask 1 1_0\n",
		"task 0 1\ntask 1 1\nedge 0 1 1_000\n",
		// A duplicate edge reported before a later malformed line.
		"task 0 1\ntask 1 1\nedge 0 1 1\nedge 0 1 2\nbogus\n",
		"task 0 1\ntask 1 1\nedge 0 1 1\nedge 0 1 2\ntask 7 1\n",
		// A self-loop duplicated, and a duplicate before a cycle.
		"task 0 1\nedge 0 0 1\nedge 0 0 1\n",
		"task 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\nedge 1 0 1\n",
		"task 0 1\ntask 1 1\ntask 2 1\nedge 0 1 1\nedge 1 2 1\nedge 0 2 1\nedge 1 2 1\nedge 0 1 1\n",
		// Edge lines broken up by other lines: the first declaration is
		// found through the line index across gaps.
		"task 0 1\ntask 1 1\nedge 0 1 1\n# gap\ntask 2 1\nedge 1 2 1\n\nedge 0 2 1\ngraph g\nedge 1 2 5\nedge 0 1 1\n",
	} {
		f.Add(s, 0, 0)
	}
	// A duplicate edge followed by a limit overflow, and a duplicate on
	// the very line that overflows the edge limit: the duplicate wins.
	f.Add("task 0 1\ntask 1 1\ntask 2 1\nedge 0 1 1\nedge 0 1 1\nedge 1 2 1\n", 0, 2)
	f.Add("task 0 1\ntask 1 1\ntask 2 1\nedge 0 1 1\nedge 0 2 1\nedge 0 1 1\n", 0, 2)
	f.Add("task 0 1\ntask 1 1\nedge 0 1 1\nedge 0 1 1\ntask 2 1\n", 2, 0)
	f.Add(textGraph(9), 8, 4)
	f.Add(textGraph(6), -1, -1)
	// Inputs that leave the canonical fast path on their last line.
	for _, c := range offCanonical {
		f.Add(c.src, c.maxTasks, c.maxEdges)
	}
	f.Fuzz(func(t *testing.T, src string, maxTasks, maxEdges int) {
		lim := oracleLimits(maxTasks, maxEdges, false)
		want, wantErr := oracleReadTextLimits(strings.NewReader(src), lim)
		got, gotErr := ReadTextLimits(strings.NewReader(src), lim)
		checkOracle(t, src, lim, got, want, gotErr, wantErr)
	})
}

// FuzzReadSTGOracle checks ReadSTGLimits against the reference reader.
func FuzzReadSTGOracle(f *testing.F) {
	for _, s := range []string{
		// FuzzReadSTG's seed corpus.
		"",
		"0\n",
		"1\n0 1 0\n",
		"2\n0 1 0\n1 2 1 0\n",
		"2\n0 1 0\n1 2 1 0 5\n",
		"3\n0 1 0\n1 1 1 0 2\n2 1 1 0\n",
		"x\n",
		"2\n0 1 1 1\n1 1 1 0\n",
		"1\n0 1 99\n",
		"# comment\n2\n0 1 0\n1 1 1 0\n",
		"1\n0 NaN 0\n",
		"1\n0 Inf 0\n",
		"1\n0 -3 0\n",
		"2\n0 1 0\n1 1 1 0 NaN\n",
		"2\n0 1 0\n1 1 1 0 -1\n",
		"3000000000\n",
		"-7\n",
		"2\n0 1 0\n1 1 2 0 0\n",
		"2\n0 1 0\n1 1 2 0 3 0 4\n",
		// Non-ASCII whitespace, invalid UTF-8, signs and comments.
		"2\u00a0\n0 1 0\n1 1 1 0\n",
		"2\n0\u20001\u00850\n1 1 1\v0\f7\r\n",
		"1\n0 \xff 0\n",
		"+2\n+0 +1 +0\n+1 +1 +1 +0 +2\n",
		"3\n0 1 0\n1 1 1 0 1\n2 1 2 0 1 1\n",
		"3\n0 1 0\n1 1 1 0\n2 1 2 0 1 5\n",
		"2 # header comment\n0 1 0 # entry\n\n1 1 1 0 3\n# trailer\n",
		"1\n0 1 0 extra\n",
		"2\n0 1 0\n1 1 1 0 1 2 3\n",
	} {
		f.Add(s, 0, 0)
	}
	f.Add(stgGraph(9), 8, 4)
	f.Add(stgGraph(6), 8, 4)
	f.Add(stgGraph(5), -1, -1)
	f.Fuzz(func(t *testing.T, src string, maxTasks, maxEdges int) {
		lim := oracleLimits(maxTasks, maxEdges, true)
		want, wantErr := oracleReadSTGLimits(strings.NewReader(src), lim)
		got, gotErr := ReadSTGLimits(strings.NewReader(src), lim)
		checkOracle(t, src, lim, got, want, gotErr, wantErr)
	})
}
