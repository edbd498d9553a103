//go:build go1.24

package memo

import (
	"runtime"
	"testing"
	"weak"

	"flb/internal/graph"
	"flb/internal/machine"
)

// collected runs the collector until every pointer reads nil, or gives
// up after a few cycles.
func collected[T any](ps ...weak.Pointer[T]) bool {
	for i := 0; i < 5; i++ {
		runtime.GC()
		alive := false
		for _, p := range ps {
			if p.Value() != nil {
				alive = true
			}
		}
		if !alive {
			return true
		}
	}
	return false
}

// putDropped caches a fresh graph's cold schedule and, with the near
// tier on, answers a drifted resubmission from it; it returns weak
// pointers to both graphs, which the caller no longer holds.
func putDropped(t *testing.T, c *Cache, sys machine.System, near bool) []weak.Pointer[graph.Graph] {
	g := memoGraph(30, 60)
	drifted := nearHitProblem(t, c, g, sys)
	ps := []weak.Pointer[graph.Graph]{weak.Make(g)}
	if near {
		if _, ok := c.Get(drifted, sys, KeyOf(drifted, sys, "flb", 1), true); !ok {
			t.Fatal("near tier did not answer the drifted resubmission")
		}
		ps = append(ps, weak.Make(drifted))
	}
	return ps
}

// TestCacheRetainsNoGraph: an entry is graph-free. Once the caller drops
// a graph it inserted (and, with the near tier on, the drifted graph a
// near hit was repaired for), a collection frees it, while the cache
// still answers the problem.
func TestCacheRetainsNoGraph(t *testing.T) {
	sys := machine.NewSystem(4)
	for _, near := range []bool{false, true} {
		c := NewCache(4)
		c.EnableNearHit(near)
		ps := putDropped(t, c, sys, near)
		if !collected(ps...) {
			t.Errorf("near=%v: the cache keeps a dropped graph alive", near)
		}
		g := memoGraph(30, 60)
		if _, ok := c.Get(g, sys, KeyOf(g, sys, "flb", 1), false); !ok {
			t.Errorf("near=%v: the entry no longer answers its problem", near)
		}
	}
}
