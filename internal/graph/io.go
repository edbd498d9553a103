package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// checkWeight rejects the weight values that parse fine but poison every
// downstream computation: NaN propagates through all level and time
// arithmetic, infinities saturate it, and negative costs invert the
// scheduling objective. Parsers call this so corrupt inputs fail with a
// line-accurate error instead of producing garbage schedules.
func checkWeight(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("weight %v is not a finite non-negative number", w)
	}
	return nil
}

// The text format is line-oriented:
//
//	# comment (also after '#' anywhere on a line)
//	graph <name>
//	task <id> <comp> [name]
//	edge <from> <to> <comm>
//
// Task IDs must be dense, in increasing order starting at 0 — the format is
// a faithful dump of the in-memory representation, not a general graph
// language. WriteText always emits parseable output and ReadText
// round-trips it.

// WriteText serializes the graph to w in the text format. Tasks without an
// explicit name are emitted with the placeholder "_", so reading the output
// back leaves their names lazily synthesized rather than materializing a
// string per task. Lines are formatted into one buffer, by appendFloat for
// weights, which prints exactly what fmt's %g prints, and handed to w
// whenever textChunk bytes are ready.
func (g *Graph) WriteText(w io.Writer) error {
	buf := make([]byte, 0, textChunk)
	for i, n := 0, g.textLines(); i < n; {
		buf, i = g.appendText(buf[:0], i, textChunk-512)
		// As with bufio.Writer, a short write without an error is one.
		if m, err := w.Write(buf); err != nil || m < len(buf) {
			if err == nil {
				err = io.ErrShortWrite
			}
			return err
		}
	}
	return nil
}

// textChunk is the size of WriteText's buffer. It writes the buffer out
// once a line ends in its last 512 bytes, so no line of a few hundred
// bytes grows it.
const textChunk = 32 << 10

// textLines returns the number of lines of g's text form: the graph
// line, one per task and one per edge.
func (g *Graph) textLines() int { return 1 + len(g.tasks) + len(g.edges) }

// appendText appends the lines of g's text form from line i on to buf
// until buf holds at least limit bytes or the last line is written, and
// returns buf and the index of the next line. Line 0 is the graph line,
// lines 1 to V the tasks, the rest the edges.
func (g *Graph) appendText(buf []byte, i, limit int) ([]byte, int) {
	if i == 0 {
		buf = append(append(append(buf, "graph "...), sanitizeName(g.Name)...), '\n')
		i++
	}
	for ; i <= len(g.tasks) && len(buf) < limit; i++ {
		t := &g.tasks[i-1]
		buf = appendFloat(append(appendUint(append(buf, "task "...), uint64(t.ID)), ' '), t.Comp)
		buf = append(append(append(buf, ' '), sanitizeName(t.Name)...), '\n')
	}
	for ; i < g.textLines() && len(buf) < limit; i++ {
		e := &g.edges[i-1-len(g.tasks)]
		buf = append(appendUint(append(appendUint(append(buf, "edge "...), uint64(e.From)), ' '), uint64(e.To)), ' ')
		buf = append(appendFloat(buf, e.Comm), '\n')
	}
	return buf, i
}

// textSize bounds the length of g's text form from above: every weight
// takes at most 24 bytes, and sanitizeName at most triples a name (an
// invalid byte becomes U+FFFD).
func (g *Graph) textSize() int {
	const task, edge = len("task  ") + 24 + len(" \n"), len("edge   ") + 24 + len("\n")
	id := decimalLen(uint64(len(g.tasks)))
	n := len("graph _\n") + 3*len(g.Name) + len(g.tasks)*(task+id+1) + len(g.edges)*(edge+2*id)
	for i := range g.tasks {
		n += 3 * len(g.tasks[i].Name)
	}
	return n
}

// sanitizeName makes s one field of the text format: every rune the
// readers split on (unicode.IsSpace) and the comment marker '#' become
// '_', so whatever WriteText emits reads back as the same field.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		if r == '#' || unicode.IsSpace(r) {
			return '_'
		}
		return r
	}, s)
}

// Byte classes of the field splitter. Every unicode.IsSpace rune below
// utf8.RuneSelf is one of the six ASCII spaces; a byte at or above it
// starts (or continues, or breaks) a multi-byte rune, which is decoded.
const (
	fieldByte = iota // ASCII, not space
	spaceByte        // ASCII space
	multiByte        // part of a multi-byte or invalid UTF-8 sequence
)

var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = multiByte
	}
	for _, c := range "\t\n\v\f\r " {
		t[c] = spaceByte
	}
	return t
}()

// spaceRune reports whether b[i:] starts with a unicode.IsSpace rune, and
// the length of that rune. Invalid UTF-8 decodes to one non-space byte,
// as it does when ranging over a string.
func spaceRune(b []byte, i int) (space bool, size int) {
	r, size := utf8.DecodeRune(b[i:])
	return unicode.IsSpace(r), size
}

// nextField returns the first field of b and the bytes after it, with
// the semantics of strings.Fields: a field is a maximal run of runes that
// are not unicode.IsSpace. tok is empty when b holds no field. tok and
// rest alias b, so the readers split a line without allocating. Only
// non-ASCII bytes are decoded.
func nextField(b []byte) (tok, rest []byte) {
	i := 0
	for i < len(b) {
		switch byteClass[b[i]] {
		case spaceByte:
			i++
			continue
		case multiByte:
			if space, n := spaceRune(b, i); space {
				i += n
				continue
			}
		}
		break
	}
	// A field's bytes are mostly ASCII non-space, so skip them eight at a
	// time until a word holds a byte that may end the field: one below
	// 0x21 (the ASCII spaces and control bytes) or at or above 0x80. The
	// subtraction's borrows can flag bytes above such a byte but never
	// below it, so the lowest flagged byte is the first candidate, and
	// the byte loop classifies it.
	j := i
	for j+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[j:])
		if m := ((x-0x2121212121212121)&^x | x) & 0x8080808080808080; m != 0 {
			j += bits.TrailingZeros64(m) / 8
			break
		}
		j += 8
	}
	for j < len(b) {
		switch byteClass[b[j]] {
		case fieldByte:
			j++
			continue
		case multiByte:
			if space, n := spaceRune(b, j); !space {
				j += n
				continue
			}
		}
		break
	}
	return b[i:j], b[j:]
}

// countFields returns the number of fields in b.
func countFields(b []byte) int {
	n := 0
	for tok, rest := nextField(b); len(tok) > 0; tok, rest = nextField(rest) {
		n++
	}
	return n
}

// ReadText parses a graph in the text format under the package's default
// size limits. The returned graph is validated.
func ReadText(r io.Reader) (*Graph, error) {
	return ReadTextLimits(r, DefaultLimits())
}

// ReadTextLimits is ReadText under explicit size limits: parsing stops
// with an error wrapping ErrTooLarge as soon as the input declares more
// tasks or edges than lim allows, before their storage is built.
func ReadTextLimits(r io.Reader, lim Limits) (*Graph, error) {
	p := readerPool.Get().(*textReader)
	g, err := p.read(r, lim)
	if p.reset(); p.poolable() {
		readerPool.Put(p)
	}
	return g, err
}

// readerPool recycles textReaders, so a steady stream of reads allocates
// only the graphs it returns. A reader whose task and edge storage grew
// past maxPooledLines is dropped instead, which bounds what the pool
// keeps to about a megabyte per reader.
var readerPool = sync.Pool{New: func() any { return new(textReader) }}

const maxPooledLines = 1 << 15

// poolable reports whether the reader's storage is small enough to pool.
func (p *textReader) poolable() bool {
	return cap(p.tasks)+cap(p.edges) <= maxPooledLines
}

// read parses one input. Lines come from the scanner in blocks, every
// whole line it holds at once; a line longer than the 4 MiB cap still
// fails the scan with bufio.ErrTooLong, as it does line by line.
func (p *textReader) read(r io.Reader, lim Limits) (*Graph, error) {
	p.lim, p.lineNo = lim.Normalized(), 0
	if p.buf == nil {
		p.buf = make([]byte, 1<<16)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(p.buf, 1<<22)
	sc.Split(scanLineBlock)
	for sc.Scan() {
		if err := p.readBlock(sc.Bytes()); err != nil {
			if sc.Err() != nil {
				// A failed read hands the line it cut short over with
				// the last block: report the read, not that line.
				break
			}
			return nil, p.firstError(p.graph(), err)
		}
	}
	g := p.graph()
	if err := sc.Err(); err != nil {
		return nil, p.firstError(g, fmt.Errorf("graph text: %w", err))
	}
	// Validate rejects duplicate edges, among everything else, so a
	// graph it accepts needs no duplicate check of its own.
	if err := g.Validate(); err != nil {
		return nil, p.firstError(g, err)
	}
	// The graph takes exact copies of the scratch it was read into, or
	// the scratch itself when the reader will not be pooled.
	if p.poolable() {
		g.tasks, g.edges = slices.Clone(p.tasks), slices.Clone(p.edges)
	} else {
		p.tasks, p.edges = nil, nil
	}
	return g, nil
}

// reset empties the reader after a read, keeping its storage but not
// the names its tasks held.
func (p *textReader) reset() {
	clear(p.tasks)
	p.lim, p.lineNo, p.name = Limits{}, 0, ""
	p.tasks, p.edges, p.runs = p.tasks[:0], p.edges[:0], p.runs[:0]
}

// scanLineBlock is the bufio.SplitFunc of ReadTextLimits: a token is
// every whole line in the scanner's buffer, newlines included, and at the
// end of input the unterminated last line. The scanner asks for more
// input, and grows its buffer, exactly when bufio.ScanLines would.
func scanLineBlock(data []byte, atEOF bool) (advance int, token []byte, err error) {
	// The forward search is the vectorized one, and it alone runs while
	// a long line arrives in small reads.
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		i += 1 + bytes.LastIndexByte(data[i+1:], '\n')
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// readBlock reads the lines of a scanner token. readCanonicalAt takes a
// canonical line and its line end in one pass; any other line ends, as
// bufio.ScanLines ends it, at a newline, less one carriage return before
// it, and goes to readLine.
func (p *textReader) readBlock(block []byte) error {
	for i := 0; i < len(block); {
		p.lineNo++
		if n := p.readCanonicalAt(block[i:]); n > 0 {
			i += n
			continue
		}
		end := bytes.IndexByte(block[i:], '\n')
		next := i + end + 1
		if end < 0 {
			end, next = len(block)-i, len(block)
		}
		if end > 0 && block[i+end-1] == '\r' {
			end--
		}
		if err := p.readLine(block[i : i+end]); err != nil {
			return err
		}
		i = next
	}
	return nil
}

// textReader is the state of one ReadTextLimits call. It reads a line
// without allocating: readCanonical decodes the lines WriteText writes
// in one pass, and readLine splits every other line into fields that
// alias the scanner's buffer and parses numbers from non-escaping string
// conversions of them. Only names are copied out. Tasks and edges are
// appended to the reader's own slices, which the reader keeps across
// reads, and handed to the graph once, which spares the per-element
// invalidation of AddTask and AddEdge.
//
// Duplicate edges are not looked up per edge. Validate finds them after
// the last line through the CSR predecessor windows, and firstError
// reports the first one ahead of any later error, naming the lines from
// the runs index. The result is the error a line-by-line duplicate check
// would have returned first.
type textReader struct {
	lim    Limits
	lineNo int
	name   string
	tasks  []Task
	edges  []Edge
	runs   []lineRun
	//flb:keep the scanner's initial buffer, reused by every read
	buf []byte
}

// lineRun records that the edges from index edge on, up to the next
// run's first edge, were declared on consecutive lines starting at line.
// A payload that lists its edges on contiguous lines needs one run.
type lineRun struct{ edge, line int }

// edgeLine returns the line that declared edge i.
func (p *textReader) edgeLine(i int) int {
	k := sort.Search(len(p.runs), func(k int) bool { return p.runs[k].edge > i }) - 1
	return p.runs[k].line + i - p.runs[k].edge
}

// graph returns the graph read so far. Its arrays are the reader's.
func (p *textReader) graph() *Graph {
	g := New(p.name)
	g.tasks, g.edges = p.tasks, p.edges
	return g
}

// errorf prefixes an error with the current line.
func (p *textReader) errorf(format string, args ...any) error {
	return fmt.Errorf("graph text line %d: "+format, append([]any{p.lineNo}, args...)...)
}

// duplicateError is the error for the edge on line repeating edge i.
func (p *textReader) duplicateError(line, i int) error {
	e := p.edges[i]
	return fmt.Errorf("graph text line %d: duplicate edge %d->%d (first declared on line %d)", line, e.From, e.To, p.edgeLine(i))
}

// firstError returns the first duplicate edge of g, the graph read so
// far, if there is one, and err otherwise: a duplicate was declared
// before the line or the end of input that err reports.
func (p *textReader) firstError(g *Graph, err error) error {
	if i, j, ok := g.firstDuplicate(); ok {
		return p.duplicateError(p.edgeLine(j), i)
	}
	return err
}

// readCanonical decodes line, which holds no newline, if it is a task or
// edge line exactly as WriteText writes it and it passes every check
// readLine would make, and reports whether it did:
//
//	task <id> <comp> [name]
//	edge <from> <to> <comm>
//
// with single spaces, ids of decimal digits, weights parseDecimal
// converts and that are not negative (-0 included), and a name of ASCII
// bytes that are neither spaces nor '#'. Every other line, and every
// line a check would reject, is left to readLine, which stays the only
// source of errors; what readCanonical accepts, readLine would have read
// into the same task or edge.
func (p *textReader) readCanonical(line []byte) bool {
	return p.readCanonicalAt(line) > 0
}

// readCanonicalAt is readCanonical of the line at the start of b, and
// returns the bytes the line spans with its end, or 0 when it declines.
// The line ends as bufio.ScanLines ends it, at a newline, a carriage
// return and a newline, or the end of b, a carriage return before it
// dropped. Numbers are read from b: none runs past a line end.
func (p *textReader) readCanonicalAt(b []byte) int {
	if len(b) < 5 {
		return 0
	}
	switch string(b[:5]) {
	case "task ":
		id, i, ok := canonicalID(b, 5)
		if !ok || id != len(p.tasks) || p.lim.checkTasks(id+1) != nil {
			return 0
		}
		comp, n, ok := parseDecimal(b[i:])
		if i += n; !ok || math.Signbit(comp) {
			return 0
		}
		var name []byte
		if i < len(b) && b[i] == ' ' {
			j := i + 1
			for j < len(b) && b[j] > ' ' && b[j] < utf8.RuneSelf && b[j] != '#' {
				j++
			}
			if name, i = b[i+1:j], j; len(name) == 0 {
				return 0
			}
		}
		n = lineEnd(b, i)
		if n < 0 {
			return 0
		}
		p.addTask(comp, name)
		return i + n
	case "edge ":
		from, i, ok := canonicalID(b, 5)
		if !ok {
			return 0
		}
		to, i, ok := canonicalID(b, i)
		if !ok || from >= len(p.tasks) || to >= len(p.tasks) || p.lim.checkEdges(len(p.edges)+1) != nil {
			return 0
		}
		comm, n, ok := parseDecimal(b[i:])
		if i += n; !ok || math.Signbit(comm) {
			return 0
		}
		n = lineEnd(b, i)
		if n < 0 {
			return 0
		}
		p.addEdge(from, to, comm)
		return i + n
	}
	return 0
}

// lineEnd returns the length of the line end at b[i:], or -1 if there is
// none: zero at the end of b, one for a newline, two for a carriage
// return and a newline, and one for a carriage return that ends b.
func lineEnd(b []byte, i int) int {
	switch {
	case i == len(b):
		return 0
	case b[i] == '\n':
		return 1
	case b[i] == '\r' && i+1 == len(b):
		return 1
	case b[i] == '\r' && b[i+1] == '\n':
		return 2
	}
	return -1
}

// canonicalID reads the id at b[i:], 1 to 18 decimal digits followed by
// a space, and returns it with the index after the space.
func canonicalID(b []byte, i int) (id, next int, ok bool) {
	v, j := digits(b, i, 0)
	if j == i || j-i > 18 || j == len(b) || b[j] != ' ' {
		return 0, 0, false
	}
	return int(v), j + 1, true
}

// addTask appends the next task. The name "_" stands for none.
func (p *textReader) addTask(comp float64, name []byte) {
	t := Task{ID: len(p.tasks), Comp: comp}
	if len(name) > 0 && string(name) != "_" {
		t.Name = string(name)
	}
	p.tasks = append(p.tasks, t)
}

// addEdge appends an edge declared on the current line.
func (p *textReader) addEdge(from, to int, comm float64) {
	if k := len(p.runs) - 1; k < 0 || p.runs[k].line+len(p.edges)-p.runs[k].edge != p.lineNo {
		p.runs = append(p.runs, lineRun{edge: len(p.edges), line: p.lineNo})
	}
	p.edges = append(p.edges, Edge{From: from, To: to, Comm: comm})
}

// readLine parses one line of the text format.
func (p *textReader) readLine(line []byte) error {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	// f holds the first four fields, all a directive may have; n counts
	// every field. f is a local array, so storing a field costs no write
	// barrier.
	var f [4][]byte
	n := 0
	for tok, rest := nextField(line); len(tok) > 0; tok, rest = nextField(rest) {
		if n < len(f) {
			f[n] = tok
		}
		n++
	}
	if n == 0 {
		return nil
	}
	switch string(f[0]) {
	case "graph":
		if n != 2 {
			return p.errorf("want 'graph <name>', got %q", line)
		}
		if string(f[1]) != "_" {
			p.name = string(f[1])
		}
	case "task":
		if n != 3 && n != 4 {
			return p.errorf("want 'task <id> <comp> [name]', got %q", line)
		}
		id, err := strconv.Atoi(string(f[1]))
		if err != nil {
			return p.errorf("bad task id %q: %w", f[1], err)
		}
		comp, err := strconv.ParseFloat(string(f[2]), 64)
		if err != nil {
			return p.errorf("bad comp %q: %w", f[2], err)
		}
		if err := checkWeight(comp); err != nil {
			return p.errorf("task %s: %w", f[1], err)
		}
		if id != len(p.tasks) {
			return p.errorf("task ids must be dense and increasing; got %d, want %d", id, len(p.tasks))
		}
		if err := p.lim.checkTasks(len(p.tasks) + 1); err != nil {
			return p.errorf("%w", err)
		}
		p.addTask(comp, f[3])
	case "edge":
		if n != 4 {
			return p.errorf("want 'edge <from> <to> <comm>', got %q", line)
		}
		from, err := strconv.Atoi(string(f[1]))
		if err != nil {
			return p.errorf("bad edge source %q: %w", f[1], err)
		}
		to, err := strconv.Atoi(string(f[2]))
		if err != nil {
			return p.errorf("bad edge target %q: %w", f[2], err)
		}
		comm, err := strconv.ParseFloat(string(f[3]), 64)
		if err != nil {
			return p.errorf("bad comm %q: %w", f[3], err)
		}
		if err := checkWeight(comm); err != nil {
			return p.errorf("edge %s->%s: %w", f[1], f[2], err)
		}
		if from < 0 || from >= len(p.tasks) || to < 0 || to >= len(p.tasks) {
			return p.errorf("edge %d->%d references unknown task", from, to)
		}
		if err := p.lim.checkEdges(len(p.edges) + 1); err != nil {
			// A duplicate is reported ahead of the limit it overflows.
			for i, e := range p.edges {
				if e.From == from && e.To == to {
					return p.duplicateError(p.lineNo, i)
				}
			}
			return p.errorf("%w", err)
		}
		p.addEdge(from, to, comm)
	default:
		return p.errorf("unknown directive %q", f[0])
	}
	return nil
}

// firstDuplicate returns the earliest edge j that repeats the endpoints
// of an earlier edge i, scanning the CSR predecessor windows: each window
// lists a task's in-edges in increasing index order, so the first edge
// seen from a source is the original and any later one a repeat. It costs
// O(V+E) and one V-sized array, and runs only on a path that already
// failed. Endpoints must be in range.
func (g *Graph) firstDuplicate() (i, j int, ok bool) {
	g.ensureAdj()
	first := make([]int, len(g.tasks)) // 1 + the first in-edge index seen from each source
	j = -1
	for v := range g.tasks {
		pe := g.preds(v)
		for _, ei := range pe {
			e := int(ei)
			u := g.edges[e].From
			if first[u] == 0 {
				first[u] = e + 1
			} else if j < 0 || e < j {
				i, j = first[u]-1, e
			}
		}
		for _, ei := range pe {
			first[g.edges[ei].From] = 0
		}
	}
	return i, j, j >= 0
}

// ParseText parses a graph from a string; see ReadText.
func ParseText(s string) (*Graph, error) {
	return ReadText(strings.NewReader(s))
}

// TextString serializes the graph to a string; see WriteText. The text
// is formatted into one buffer sized once by textSize and copied into a
// string of its exact length.
func (g *Graph) TextString() string {
	buf, _ := g.appendText(make([]byte, 0, g.textSize()), 0, math.MaxInt)
	return string(buf)
}

// WriteDOT emits the graph in Graphviz DOT format, with computation costs
// as node labels and communication costs as edge labels.
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", dotName(g.Name))
	fmt.Fprintf(bw, "  rankdir=TB;\n  node [shape=circle];\n")
	for id := range g.tasks {
		t := g.Task(id) // synthesizes default names
		fmt.Fprintf(bw, "  n%d [label=\"%s\\n%g\"];\n", t.ID, t.Name, t.Comp)
	}
	// Sort for deterministic output independent of insertion order.
	edges := append([]Edge(nil), g.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		fmt.Fprintf(bw, "  n%d -> n%d [label=\"%g\"];\n", e.From, e.To, e.Comm)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func dotName(s string) string {
	if s == "" {
		return "taskgraph"
	}
	return s
}
