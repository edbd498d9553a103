package graph

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// textGraph builds a text-format payload with v tasks and a (v-1)-edge
// chain, the smallest shape that exercises both limits.
func textGraph(v int) string {
	var b strings.Builder
	b.WriteString("graph lim\n")
	for i := 0; i < v; i++ {
		fmt.Fprintf(&b, "task %d 1\n", i)
	}
	for i := 1; i < v; i++ {
		fmt.Fprintf(&b, "edge %d %d 1\n", i-1, i)
	}
	return b.String()
}

// stgGraph builds the same chain in weighted STG format.
func stgGraph(v int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", v)
	for i := 0; i < v; i++ {
		if i == 0 {
			fmt.Fprintf(&b, "0 1 0\n")
		} else {
			fmt.Fprintf(&b, "%d 1 1 %d 1\n", i, i-1)
		}
	}
	return b.String()
}

func TestReadLimits(t *testing.T) {
	lim := Limits{MaxTasks: 8, MaxEdges: 4}
	tests := []struct {
		name     string
		input    string
		stg      bool
		tooLarge bool // want an ErrTooLarge failure
		ok       bool // want a successful parse
	}{
		{name: "text within limits", input: textGraph(5), ok: true},
		{name: "text too many tasks", input: textGraph(9), tooLarge: true},
		{name: "text too many edges", input: textGraph(6), tooLarge: true},
		{name: "text malformed directive", input: "graph g\nbogus 1 2\n"},
		{name: "text malformed weight", input: "graph g\ntask 0 NaN\n"},
		{name: "stg within limits", input: stgGraph(5), stg: true, ok: true},
		{name: "stg declared count too large", input: stgGraph(9), stg: true, tooLarge: true},
		{name: "stg hostile header", input: "999999999\n", stg: true, tooLarge: true},
		{name: "stg too many edges", input: stgGraph(6), stg: true, tooLarge: true},
		{name: "stg malformed header", input: "not-a-count\n", stg: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.stg {
				_, err = ReadSTGLimits(strings.NewReader(tc.input), lim)
			} else {
				_, err = ReadTextLimits(strings.NewReader(tc.input), lim)
			}
			if tc.ok {
				if err != nil {
					t.Fatalf("want success, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error, parsed fine")
			}
			if got := errors.Is(err, ErrTooLarge); got != tc.tooLarge {
				t.Fatalf("errors.Is(err, ErrTooLarge) = %v, want %v (err: %v)", got, tc.tooLarge, err)
			}
		})
	}
}

// TestDefaultLimitsShared pins that the plain readers enforce the same
// defaults the service documents: a header declaring more than
// DefaultMaxTasks tasks is refused by ReadSTG and ReadText alike.
func TestDefaultLimitsShared(t *testing.T) {
	if _, err := ReadSTG(strings.NewReader(fmt.Sprintf("%d\n", DefaultMaxTasks+1))); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadSTG over DefaultMaxTasks: got %v, want ErrTooLarge", err)
	}
	// The text format declares tasks one line at a time; synthesize just
	// past the cap with a tiny custom limit to keep the test fast, then
	// check the default path's wiring with the zero-value Limits.
	if _, err := ReadTextLimits(strings.NewReader(textGraph(3)), Limits{MaxTasks: 2}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadTextLimits over MaxTasks: got %v, want ErrTooLarge", err)
	}
	if _, err := ReadTextLimits(strings.NewReader(textGraph(3)), Limits{}); err != nil {
		t.Fatalf("zero-value Limits must mean defaults, got %v", err)
	}
	if _, err := ReadTextLimits(strings.NewReader(textGraph(3)), Limits{MaxTasks: -1, MaxEdges: -1}); err != nil {
		t.Fatalf("negative Limits must cap at MaxCSR, got %v", err)
	}
}

// TestLimitsCapAtMaxCSR pins that no Limits value lets a parser build a
// graph the uint32 CSR cannot index: a negative or oversized field
// normalizes to MaxCSR, and one task or edge past it is ErrTooLarge.
func TestLimitsCapAtMaxCSR(t *testing.T) {
	over := uint64(MaxCSR) + 1
	for _, lim := range []Limits{{MaxTasks: -1, MaxEdges: -1}, {MaxTasks: int(over), MaxEdges: int(over)}} {
		n := lim.Normalized()
		if n.MaxTasks != MaxCSR || n.MaxEdges != MaxCSR {
			t.Fatalf("%+v normalized to %+v, want both fields %d", lim, n, uint64(MaxCSR))
		}
		if err := n.checkTasks(MaxCSR); err != nil {
			t.Errorf("%+v: MaxCSR tasks refused: %v", lim, err)
		}
		if err := n.checkEdges(MaxCSR); err != nil {
			t.Errorf("%+v: MaxCSR edges refused: %v", lim, err)
		}
		if err := n.checkTasks(int(over)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%+v: MaxCSR+1 tasks: got %v, want ErrTooLarge", lim, err)
		}
		if err := n.checkEdges(int(over)); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%+v: MaxCSR+1 edges: got %v, want ErrTooLarge", lim, err)
		}
	}
	// The STG reader vets its declared count before sizing any storage,
	// so the cap shows end to end without building a huge graph.
	hdr := strconv.FormatUint(over, 10) + "\n"
	if _, err := ReadSTGLimits(strings.NewReader(hdr), Limits{MaxTasks: -1}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadSTGLimits of a MaxCSR+1 header under a negative limit: got %v, want ErrTooLarge", err)
	}
}
