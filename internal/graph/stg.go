package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// STG support: the Standard Task Graph Set format (Kasahara Lab) is the
// conventional interchange format for task-scheduling benchmarks, so the
// tools read and write it alongside the native text format.
//
// Classic STG lists, after a first line with the task count, one line per
// task:
//
//	<id> <processing time> <npred> <pred1> <pred2> ...
//
// and terminates with optional "# ..." comment lines. The classic format
// carries no communication costs (the STG set targets P|prec|Cmax); this
// package also accepts and emits the common "weighted" extension in which
// every predecessor is followed by the communication cost of the edge:
//
//	<id> <processing time> <npred> <pred1> <comm1> <pred2> <comm2> ...
//
// WriteSTG always emits the weighted form. ReadSTG auto-detects the form
// from the token count of the first task line with predecessors.
//
// STG files conventionally include a zero-cost entry node and exit node;
// this reader keeps whatever structure the file describes (no nodes are
// added or removed).

// ReadSTG parses a task graph in STG format (classic or weighted) under
// the package's default size limits.
func ReadSTG(r io.Reader) (*Graph, error) {
	return ReadSTGLimits(r, DefaultLimits())
}

// ReadSTGLimits is ReadSTG under explicit size limits: a declared task
// count (or an accumulated edge count) beyond lim fails with an error
// wrapping ErrTooLarge before storage for it is allocated.
func ReadSTGLimits(r io.Reader, lim Limits) (*Graph, error) {
	lim = lim.Normalized()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	// readLine returns the next line that holds a field, its comment cut.
	// The line aliases the scanner's buffer until the next call.
	readLine := func() ([]byte, bool) {
		for sc.Scan() {
			line := sc.Bytes()
			if i := bytes.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			if tok, _ := nextField(line); len(tok) > 0 {
				return line, true
			}
		}
		return nil, false
	}

	head, ok := readLine()
	if !ok {
		return nil, fmt.Errorf("graph stg: empty input")
	}
	countTok, after := nextField(head)
	if countFields(after) != 0 {
		return nil, fmt.Errorf("graph stg: first line must be the task count, got %q", strings.Join(strings.Fields(string(head)), " "))
	}
	n, err := strconv.Atoi(string(countTok))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("graph stg: bad task count %q", countTok)
	}
	// A declared count far beyond any real benchmark is a corrupt or
	// hostile header; refuse it before allocating task storage for it.
	if err := lim.checkTasks(n); err != nil {
		return nil, fmt.Errorf("graph stg: %w", err)
	}

	// The header's declared count (already vetted against the limits above)
	// pre-sizes task storage exactly; edges stay unsized because the header
	// does not carry an edge count.
	g := NewWithCapacity("stg", n, 0)
	for i := 0; i < n; i++ {
		g.AddTask(0)
	}
	weighted := -1 // unknown until a task with predecessors is seen
	// A task listing the same predecessor twice would declare two parallel
	// edges with possibly different weights; Validate rejects that later,
	// but without naming the task. seenPred is reused across task lines.
	seenPred := make(map[int]struct{})
	for i := 0; i < n; i++ {
		line, ok := readLine()
		if !ok {
			return nil, fmt.Errorf("graph stg: expected %d task lines, got %d", n, i)
		}
		// Fields are taken one at a time; the line's predecessor tokens
		// are counted before they are parsed.
		idTok, rest := nextField(line)
		compTok, rest := nextField(rest)
		npredTok, rest := nextField(rest)
		if len(npredTok) == 0 {
			return nil, fmt.Errorf("graph stg: task line %d too short: %q", i, strings.Join(strings.Fields(string(line)), " "))
		}
		id, err := strconv.Atoi(string(idTok))
		if err != nil || id != i {
			return nil, fmt.Errorf("graph stg: task ids must be dense from 0; line %d has id %q", i, idTok)
		}
		comp, err := strconv.ParseFloat(string(compTok), 64)
		if err != nil {
			return nil, fmt.Errorf("graph stg: bad processing time %q on task %d", compTok, id)
		}
		if err := checkWeight(comp); err != nil {
			return nil, fmt.Errorf("graph stg: task %d: %w", id, err)
		}
		g.SetComp(id, comp)
		npred, err := strconv.Atoi(string(npredTok))
		if err != nil || npred < 0 {
			return nil, fmt.Errorf("graph stg: bad predecessor count %q on task %d", npredTok, id)
		}
		ntok := countFields(rest)
		if npred > 0 && weighted == -1 {
			switch ntok {
			case npred:
				weighted = 0
			case 2 * npred:
				weighted = 1
			default:
				return nil, fmt.Errorf("graph stg: task %d has %d predecessor tokens for %d predecessors", id, ntok, npred)
			}
		}
		want := npred
		if weighted == 1 {
			want = 2 * npred
		}
		if ntok != want {
			return nil, fmt.Errorf("graph stg: task %d has %d predecessor tokens, want %d", id, ntok, want)
		}
		clear(seenPred)
		for j := 0; j < npred; j++ {
			var predTok []byte
			predTok, rest = nextField(rest)
			pred, err := strconv.Atoi(string(predTok))
			if err != nil || pred < 0 || pred >= n {
				return nil, fmt.Errorf("graph stg: task %d has bad predecessor %q", id, predTok)
			}
			if _, dup := seenPred[pred]; dup {
				return nil, fmt.Errorf("graph stg: task %d lists predecessor %d twice", id, pred)
			}
			seenPred[pred] = struct{}{}
			comm := 0.0 // the classic form carries no communication costs
			if weighted == 1 {
				var commTok []byte
				commTok, rest = nextField(rest)
				if comm, err = strconv.ParseFloat(string(commTok), 64); err != nil {
					return nil, fmt.Errorf("graph stg: task %d has bad comm %q", id, commTok)
				}
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

// WriteSTG serializes the graph in weighted STG format (every predecessor
// followed by the edge's communication cost).
func (g *Graph) WriteSTG(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", g.NumTasks())
	for id := 0; id < g.NumTasks(); id++ {
		preds := g.PredEdges(id)
		fmt.Fprintf(bw, "%d %g %d", id, g.Comp(id), preds.Len())
		for k := 0; k < preds.Len(); k++ {
			e := g.Edge(preds.At(k))
			fmt.Fprintf(bw, " %d %g", e.From, e.Comm)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "# graph %s, weighted STG written by flb\n", sanitizeName(g.Name))
	return bw.Flush()
}
