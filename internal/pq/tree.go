package pq

import "math/bits"

// absent is the record of an id that is not set: every word all ones,
// so it loses every match against a set id's record (whose encoded
// primary is at most enc(+Inf) < 2⁶⁴−1) and a match between two absent
// records changes nothing.
var absent = item{prim: ^uint64(0), sec: ^uint64(0), id: -1}

// Tree is an indexed minimum over the fixed id range [0, n): a complete
// binary winner tree. Each id owns one leaf, holding its record or the
// absent record; each inner node holds the smaller record of its two
// children, so the root holds the minimum by Key.Less then id — the item
// a Heap holding the same entries would Peek. Set and Clear rewrite one
// leaf and replay the ⌈log₂ n⌉ matches on its path to the root: there is
// no position store and nothing is swapped.
//
// It suits a small dense id set whose keys change every step, such as a
// scheduler's processor lists. The zero value holds no ids; size it with
// Init.
type Tree struct {
	// node[1] is the root, node[i]'s children are node[2i] and
	// node[2i+1], and id's leaf is node[len(node)/2+id]. node[0] is
	// unused.
	node []item
	n    int // the id range
	len  int // set ids
}

// Init empties the tree and sizes it for ids in [0, n), reusing its
// storage when it is large enough.
func (t *Tree) Init(n int) {
	leaves := 1
	if n > 1 {
		leaves <<= bits.Len(uint(n - 1))
	}
	if cap(t.node) >= 2*leaves {
		t.node = t.node[:2*leaves]
	} else {
		t.node = make([]item, 2*leaves)
	}
	for i := range t.node {
		t.node[i] = absent
	}
	t.n, t.len = n, 0
}

// Len returns the number of set ids.
func (t *Tree) Len() int { return t.len }

// Set gives id the key, adding id if it is not set. It panics if id is
// outside [0, n).
//
//flb:hotpath
func (t *Tree) Set(id int, key Key) {
	if uint(id) >= uint(t.n) {
		panic("pq: Tree id out of range")
	}
	i := len(t.node)/2 + id
	if t.node[i].id != id {
		t.len++
	}
	t.replay(i, mk(id, key))
}

// Clear removes id if it is set. It panics if id is outside [0, n).
//
//flb:hotpath
func (t *Tree) Clear(id int) {
	if uint(id) >= uint(t.n) {
		panic("pq: Tree id out of range")
	}
	i := len(t.node)/2 + id
	if t.node[i].id != id {
		return
	}
	t.len--
	t.replay(i, absent)
}

// Min returns the id and key of the minimum set id. ok is false when no
// id is set.
//
//flb:hotpath
func (t *Tree) Min() (id int, key Key, ok bool) {
	if t.len == 0 {
		return 0, Key{}, false
	}
	return t.node[1].id, t.node[1].key(), true
}

// replay writes cur into node i and re-runs the matches from there up to
// the root: each parent takes the smaller of its two children. cur, the
// record climbing the path, stays in registers and trades places with
// its sibling by mask rather than by a branch on the outcome, so the
// sibling loads do not wait on the stores below them. Two distinct set
// ids never tie, and two absent records are the same record, so which
// child wins a tie does not matter.
//
//flb:hotpath
func (t *Tree) replay(i int, cur item) {
	node := t.node
	node[i] = cur
	for i > 1 {
		sib := node[i^1]
		m := -lessBit(sib, cur) // all ones when the sibling wins
		cur.prim ^= (cur.prim ^ sib.prim) & m
		cur.sec ^= (cur.sec ^ sib.sec) & m
		cur.id ^= (cur.id ^ sib.id) & int(m)
		i >>= 1
		node[i] = cur
	}
}
