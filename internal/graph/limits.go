package graph

import (
	"errors"
	"fmt"
)

// ErrTooLarge marks parse failures caused by an input exceeding a size
// limit rather than by malformed syntax. Servers use errors.Is to map it
// to 413 Payload Too Large while every other parse error stays a 400.
var ErrTooLarge = errors.New("graph exceeds size limit")

// Default parse limits. They bound what the parsers will materialize
// before Validate runs: a corrupt or hostile header must not be able to
// make the reader allocate storage for an absurd declared size. The
// values sit far above every benchmark in the module (the ROADMAP's
// million-task sweeps included) while still refusing the pathological.
const (
	// DefaultMaxTasks caps the task count a parser accepts.
	DefaultMaxTasks = 1 << 20
	// DefaultMaxEdges caps the edge count a parser accepts.
	DefaultMaxEdges = 1 << 23
)

// Limits bounds what ReadTextLimits and ReadSTGLimits will parse. The
// zero value of a field selects the package default, so callers tighten
// only the knobs they care about; a negative field, or one above MaxCSR,
// caps at MaxCSR, the most the CSR adjacency can index, so no parsed
// graph is too large to freeze. The same Limits value is shared between
// the flbd HTTP handlers and the parsers, so the service's documented
// caps and the parser's enforced caps cannot drift apart.
type Limits struct {
	MaxTasks int
	MaxEdges int
}

// DefaultLimits are the limits the plain ReadText and ReadSTG apply.
func DefaultLimits() Limits {
	return Limits{MaxTasks: DefaultMaxTasks, MaxEdges: DefaultMaxEdges}
}

// Normalized resolves zero fields to the defaults and negative or
// oversized fields to MaxCSR.
func (l Limits) Normalized() Limits {
	l.MaxTasks = normalizeLimit(l.MaxTasks, DefaultMaxTasks)
	l.MaxEdges = normalizeLimit(l.MaxEdges, DefaultMaxEdges)
	return l
}

func normalizeLimit(n, def int) int {
	switch {
	case n == 0:
		return def
	case n < 0 || uint64(n) > MaxCSR:
		return MaxCSR
	}
	return n
}

// checkTasks and checkEdges test a count against Normalized limits.
func (l Limits) checkTasks(n int) error {
	if n > l.MaxTasks {
		return fmt.Errorf("%w: %d tasks exceeds limit %d", ErrTooLarge, n, l.MaxTasks)
	}
	return nil
}

func (l Limits) checkEdges(n int) error {
	if n > l.MaxEdges {
		return fmt.Errorf("%w: %d edges exceeds limit %d", ErrTooLarge, n, l.MaxEdges)
	}
	return nil
}
