package graph

import "math/bits"

// This file computes the task-graph width W: the maximum number of tasks
// that are pairwise not connected through a path (paper §2), i.e. the size
// of a maximum antichain of the DAG's reachability partial order. The
// paper's complexity bound O(V(log W + log P) + E) and the invariant
// "at any given time the number of ready tasks never exceeds W" both refer
// to this quantity.
//
// Width computes W exactly with Dilworth's theorem: the maximum antichain
// equals V minus the size of a maximum matching of the bipartite graph
// whose edges are the pairs (u, v) with a u->v path (a minimum chain
// cover). The reachability relation is materialized as bit sets and the
// matching found with Hopcroft–Karp, which is fast enough for the paper's
// V ≈ 2000 graphs. LayerWidth is a cheap O(V+E) lower bound (the largest
// longest-path layer, which is always an antichain).

// Bitset is a fixed-size set of task IDs packed 64 per word. It backs the
// reachability relation and is exported for consumers of Reachability
// (width computation here, MCP's descendant tie-breaking).
type Bitset []uint64

// NewBitset returns an empty set able to hold ids in [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set adds i to the set.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether i is in the set.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Or adds every element of other (which must be the same size) to b.
func (b Bitset) Or(other Bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

// Count returns the number of elements in the set.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEach calls f for every element in increasing order.
func (b Bitset) ForEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Reachability returns, for every task, the bit set of tasks reachable from
// it by a non-empty path.
func (g *Graph) Reachability() []Bitset {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	n := len(g.tasks)
	reach := make([]Bitset, n)
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		reach[id] = NewBitset(n)
		for _, ei := range g.succs(id) {
			to := g.edges[ei].To
			reach[id].Set(to)
			reach[id].Or(reach[to])
		}
	}
	return reach
}

// Connected reports whether tasks u and v are connected through a path in
// either direction, using a precomputed Reachability.
func Connected(reach []Bitset, u, v int) bool {
	return reach[u].Has(v) || reach[v].Has(u)
}

// Width returns the exact task-graph width W (maximum antichain size).
// It runs Hopcroft–Karp over the transitive closure; use LayerWidth for a
// cheap bound on very large graphs.
func (g *Graph) Width() int {
	n := len(g.tasks)
	if n == 0 {
		return 0
	}
	reach := g.Reachability()
	return n - maxMatching(reach, n)
}

// maxMatching runs Hopcroft–Karp on the bipartite graph left=tasks,
// right=tasks, edge (u,v) iff v is reachable from u, and returns the size
// of a maximum matching.
func maxMatching(reach []Bitset, n int) int {
	const inf = int(^uint(0) >> 1)
	matchL := make([]int, n) // matchL[u] = matched right vertex or -1
	matchR := make([]int, n)
	for i := 0; i < n; i++ {
		matchL[i], matchR[i] = -1, -1
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < n; u++ {
			if matchL[u] == -1 {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			reach[u].ForEach(func(v int) {
				w := matchR[v]
				if w == -1 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			})
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		ok := false
		reach[u].ForEach(func(v int) {
			if ok {
				return
			}
			w := matchR[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				ok = true
			}
		})
		if !ok {
			dist[u] = inf
		}
		return ok
	}

	matching := 0
	for bfs() {
		for u := 0; u < n; u++ {
			if matchL[u] == -1 && dfs(u) {
				matching++
			}
		}
	}
	return matching
}

// LayerWidth returns the size of the largest longest-path layer: tasks are
// binned by the number of edges on the longest entry path to them, and the
// largest bin is returned. Every layer is an antichain, so this is a lower
// bound on Width, computed in O(V + E).
func (g *Graph) LayerWidth() int {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	n := len(g.tasks)
	layer := make([]int, n)
	maxLayer := 0
	for _, id := range order {
		for _, ei := range g.succs(id) {
			to := g.edges[ei].To
			if layer[id]+1 > layer[to] {
				layer[to] = layer[id] + 1
			}
		}
		if layer[id] > maxLayer {
			maxLayer = layer[id]
		}
	}
	counts := make([]int, maxLayer+1)
	best := 0
	for _, l := range layer {
		counts[l]++
		if counts[l] > best {
			best = counts[l]
		}
	}
	return best
}
