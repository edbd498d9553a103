// Package pq provides the indexed priority lists of the scheduling
// algorithms in this module: heaps for task lists, trees for processor
// lists.
//
// The paper's pseudocode manipulates sorted lists through four operations:
// Enqueue, Dequeue (pop the head), RemoveItem (delete by identity) and
// BalanceList (re-establish order after a priority change). Items are
// identified by small non-negative integer ids (task ids or processor
// ids), so nothing needs a map.
//
// Heap holds a task list: any subset of a large id range, entering and
// leaving as tasks become ready and are placed. It is a flat 4-ary heap
// of 24-byte records with a dense position index: each entry holds both
// key components, encoded as order-preserving unsigned integers, next to
// its id, so the tree is half as deep as a binary heap's and a comparison
// is one three-word subtract-with-borrow chain with no data-dependent
// branch. Sifts carry the moving record in a hole and write it once.
//
// Tree holds a processor list: a fixed dense id range [0, n) whose ids
// are mostly present and whose keys change every step. It is a complete
// binary winner tree over the same records, one leaf per id, so a key
// change is one leaf-to-root walk of ⌈log₂ n⌉ compares with no position
// store and no swaps.
//
// Both order entries by Key.Less — a total order — so which item a
// Heap's Peek or a Tree's Min returns is independent of the arity, the
// layout and the key encoding.
package pq

import (
	"math"
	"math/bits"
)

// Key is a lexicographic priority: smaller keys are dequeued first.
//
// Primary holds the main sort key (EMT, LMT, EST or PRT depending on the
// list). Secondary implements the paper's tie-breaking rule "select the task
// with the longest path to any exit task": callers store the *negated*
// bottom level so that larger bottom levels sort first. Remaining ties fall
// back to the item id, making every heap fully deterministic.
//
// Components must not be NaN. −0 and +0 are equal keys, as under ==, and
// a heap reads either back as +0.
type Key struct {
	Primary   float64
	Secondary float64
}

// Less reports whether k should be dequeued before other, with id/otherID
// as the final deterministic tie-break.
//
//flb:exact deterministic total-order comparator: equal keys must fall through to the id tie-break bit-for-bit
//flb:hotpath
func (k Key) Less(id int, other Key, otherID int) bool {
	if k.Primary != other.Primary {
		return k.Primary < other.Primary
	}
	if k.Secondary != other.Secondary {
		return k.Secondary < other.Secondary
	}
	return id < otherID
}

// arity is the branching factor. Four children per node halves the tree
// depth of a binary heap; sift-down scans the four child records, 96
// contiguous bytes, per level.
const arity = 4

// item is one heap entry: the key components in their order-preserving
// encoding (see enc) and the id.
type item struct {
	prim, sec uint64
	id        int
}

// enc maps a non-NaN float to a uint64 that orders as < orders the floats.
// Adding +0 folds −0 into +0, so the two stay equal keys. Negative floats
// are complemented (their magnitude order is reversed and they land below
// every non-negative float); the rest get their sign bit set.
//
//flb:hotpath
func enc(x float64) uint64 {
	b := math.Float64bits(x + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// dec inverts enc (up to the −0 fold).
//
//flb:hotpath
func dec(u uint64) float64 {
	return math.Float64frombits(u ^ (uint64(int64(^u)>>63) | 1<<63))
}

// mk encodes an entry.
//
//flb:hotpath
func mk(id int, key Key) item {
	return item{prim: enc(key.Primary), sec: enc(key.Secondary), id: id}
}

// key decodes an entry's key.
func (it item) key() Key {
	return Key{Primary: dec(it.prim), Secondary: dec(it.sec)}
}

// less orders entries as Key.Less orders their keys.
//
//flb:hotpath
func less(a, b item) bool { return lessBit(a, b) != 0 }

// lessBit is less as 1 or 0: it compares (prim, sec, id) as one 192-bit
// unsigned number, which is smaller exactly when the subtraction a − b
// borrows out of its top word. Ids are non-negative, so their uint64
// image keeps their order.
//
//flb:hotpath
func lessBit(a, b item) uint64 {
	_, borrow := bits.Sub64(uint64(a.id), uint64(b.id), 0)
	_, borrow = bits.Sub64(a.sec, b.sec, borrow)
	_, borrow = bits.Sub64(a.prim, b.prim, borrow)
	return borrow
}

// Heap is an indexed 4-ary min-heap over items with dense integer ids in
// [0, capacity). The zero value is an empty heap with no position store;
// construct with New, NewShared, or (for reusable arenas) Init.
type Heap struct {
	items []item
	// pos[id] is the index of id in this heap (or a sibling heap sharing
	// the store), or -1 if id is not enqueued.
	pos []int
}

// New returns an empty heap able to hold ids in [0, capacity).
func New(capacity int) *Heap {
	return NewShared(NewPos(capacity))
}

// NewPos returns a position store for ids in [0, capacity), for use with
// NewShared.
func NewPos(capacity int) []int {
	return GrowPos(nil, capacity)
}

// GrowPos returns a cleared position store (every entry -1) for ids in
// [0, capacity), reusing pos's backing array when it is large enough.
// It is the allocation-free path for scheduler arenas that run many times
// over graphs of similar size.
func GrowPos(pos []int, capacity int) []int {
	if cap(pos) >= capacity {
		pos = pos[:capacity]
	} else {
		pos = make([]int, capacity)
	}
	for i := range pos {
		pos[i] = -1
	}
	return pos
}

// NewShared returns an empty heap using the caller-provided position
// store. Several heaps may share one store as long as any given id is
// enqueued in at most one of them at a time — exactly the situation of
// FLB's per-processor EP task lists, where a task belongs to one enabling
// processor. Sharing reduces the memory for P per-processor heaps over V
// tasks from O(P*V) to O(V + P).
func NewShared(pos []int) *Heap {
	return &Heap{pos: pos}
}

// Init empties the heap, keeps its item capacity, and binds it to pos,
// which must already be cleared for every id this heap held (GrowPos
// clears the whole store). It makes heap values embedded in scheduler
// arenas reusable without reallocation.
func (h *Heap) Init(pos []int) {
	h.items = h.items[:0]
	h.pos = pos
}

// Reset empties the heap in place, clearing the position entries of the
// items it holds (so it is safe with a shared store) and keeping all
// capacity for reuse. The heap must be re-grown with Grow before ids
// beyond its current position-store capacity are pushed.
func (h *Heap) Reset() {
	for _, it := range h.items {
		h.pos[it.id] = -1
	}
	h.items = h.items[:0]
}

// Grow empties the heap and ensures its (non-shared) position store covers
// ids in [0, capacity), reallocating only when the capacity grows. Heaps
// sharing a store should instead pass a GrowPos'd store to Init.
func (h *Heap) Grow(capacity int) {
	h.Init(GrowPos(h.pos, capacity))
}

// Len returns the number of enqueued items.
func (h *Heap) Len() int { return len(h.items) }

// Empty reports whether the heap holds no items.
func (h *Heap) Empty() bool { return len(h.items) == 0 }

// indexOf returns id's index in this heap, or -1. With a shared position
// store, pos[id] may refer to a sibling heap's slot; the id check filters
// that out.
//
//flb:hotpath
func (h *Heap) indexOf(id int) int {
	p := h.pos[id]
	if p < 0 || p >= len(h.items) || h.items[p].id != id {
		return -1
	}
	return p
}

// Contains reports whether id is currently enqueued in this heap.
func (h *Heap) Contains(id int) bool { return h.indexOf(id) >= 0 }

// Key returns the current key of id. It panics if id is not enqueued.
func (h *Heap) Key(id int) Key {
	p := h.indexOf(id)
	if p < 0 {
		panic("pq: Key of item not in heap")
	}
	return h.items[p].key()
}

// Push inserts id with the given key. It panics if id is already enqueued;
// Remove it first to change its key.
//
//flb:hotpath
func (h *Heap) Push(id int, key Key) {
	if h.indexOf(id) >= 0 {
		panic("pq: Push of item already in heap")
	}
	h.items = append(h.items, item{})
	h.up(len(h.items)-1, mk(id, key))
}

// Peek returns the id and key of the minimum item without removing it.
// ok is false when the heap is empty.
//
//flb:hotpath
func (h *Heap) Peek() (id int, key Key, ok bool) {
	if len(h.items) == 0 {
		return 0, Key{}, false
	}
	return h.items[0].id, h.items[0].key(), true
}

// Pop removes and returns the minimum item. ok is false when the heap is
// empty.
//
//flb:hotpath
func (h *Heap) Pop() (id int, key Key, ok bool) {
	if len(h.items) == 0 {
		return 0, Key{}, false
	}
	id, key = h.items[0].id, h.items[0].key()
	h.removeAt(0)
	return id, key, true
}

// Remove deletes id from the heap if present and reports whether it was.
//
//flb:hotpath
func (h *Heap) Remove(id int) bool {
	p := h.indexOf(id)
	if p < 0 {
		return false
	}
	h.removeAt(p)
	return true
}

// removeAt deletes the entry at index p: the last record fills the hole.
//
//flb:hotpath
func (h *Heap) removeAt(p int) {
	last := len(h.items) - 1
	h.pos[h.items[p].id] = -1
	it := h.items[last]
	h.items = h.items[:last]
	if p < last {
		h.fix(p, it)
	}
}

// fix writes it into the hole at index i, sifting it toward the root if
// it beats the parent and toward the leaves otherwise.
//
//flb:hotpath
func (h *Heap) fix(i int, it item) {
	if i > 0 && less(it, h.items[(i-1)/arity]) {
		h.up(i, it)
	} else {
		h.down(i, it)
	}
}

// up moves the hole at index i toward the root past every parent it beats,
// then writes it into the hole.
//
//flb:hotpath
func (h *Heap) up(i int, it item) {
	items, pos := h.items, h.pos
	for i > 0 {
		parent := (i - 1) / arity
		p := items[parent]
		if !less(it, p) {
			break
		}
		items[i] = p
		pos[p.id] = i
		i = parent
	}
	items[i] = it
	pos[it.id] = i
}

// down moves the hole at index i toward the leaves while its smallest
// child beats it, then writes it into the hole.
//
//flb:hotpath
func (h *Heap) down(i int, it item) {
	items, pos := h.items, h.pos
	n := len(items)
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		end := min(first+arity, n)
		smallest, best := first, items[first]
		for c := first + 1; c < end; c++ {
			if less(items[c], best) {
				smallest, best = c, items[c]
			}
		}
		if !less(best, it) {
			break
		}
		items[i] = best
		pos[best.id] = i
		i = smallest
	}
	items[i] = it
	pos[it.id] = i
}
