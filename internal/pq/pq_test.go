package pq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyHeap(t *testing.T) {
	h := New(4)
	if !h.Empty() || h.Len() != 0 {
		t.Fatalf("new heap not empty: len=%d", h.Len())
	}
	if _, _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap returned ok")
	}
	if _, _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap returned ok")
	}
	if h.Remove(2) {
		t.Error("Remove on empty heap returned true")
	}
	if h.Contains(0) {
		t.Error("Contains(0) on empty heap")
	}
}

func TestPushPopOrder(t *testing.T) {
	h := New(5)
	keys := []float64{3, 1, 4, 1.5, 0.5}
	for id, k := range keys {
		h.Push(id, Key{Primary: k})
	}
	want := []int{4, 1, 3, 0, 2}
	for i, wantID := range want {
		id, _, ok := h.Pop()
		if !ok {
			t.Fatalf("pop %d: heap empty", i)
		}
		if id != wantID {
			t.Errorf("pop %d: got id %d, want %d", i, id, wantID)
		}
	}
	if !h.Empty() {
		t.Error("heap not empty after draining")
	}
}

func TestSecondaryAndIDTieBreak(t *testing.T) {
	h := New(6)
	// All same primary; ids 0..2 use secondary -BL (higher BL first), 3..5
	// are full ties broken by id.
	h.Push(0, Key{Primary: 1, Secondary: -5})
	h.Push(1, Key{Primary: 1, Secondary: -9})
	h.Push(2, Key{Primary: 1, Secondary: -7})
	h.Push(3, Key{Primary: 0})
	h.Push(4, Key{Primary: 0})
	h.Push(5, Key{Primary: 0})
	want := []int{3, 4, 5, 1, 2, 0}
	for i, wantID := range want {
		id, _, _ := h.Pop()
		if id != wantID {
			t.Errorf("pop %d: got id %d, want %d", i, id, wantID)
		}
	}
}

func TestRemoveMiddle(t *testing.T) {
	h := New(8)
	for id := 0; id < 8; id++ {
		h.Push(id, Key{Primary: float64(id)})
	}
	if !h.Remove(3) {
		t.Fatal("Remove(3) = false")
	}
	if h.Contains(3) {
		t.Fatal("Contains(3) after Remove")
	}
	if h.Remove(3) {
		t.Fatal("second Remove(3) = true")
	}
	want := []int{0, 1, 2, 4, 5, 6, 7}
	for i, wantID := range want {
		id, _, _ := h.Pop()
		if id != wantID {
			t.Errorf("pop %d: got %d, want %d", i, id, wantID)
		}
	}
}

func TestPushDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Push of duplicate id did not panic")
		}
	}()
	h := New(1)
	h.Push(0, Key{})
	h.Push(0, Key{})
}

func TestKeyMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Key of missing id did not panic")
		}
	}()
	New(1).Key(0)
}

// TestRandomOperationsAgainstOracle drives the heap with random
// push/pop/re-key/remove sequences and checks every observable against a
// naive sorted-slice oracle.
func TestRandomOperationsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 64
	for trial := 0; trial < 50; trial++ {
		h := New(n)
		oracle := map[int]Key{}
		min := func() (int, bool) {
			best, found := -1, false
			for id, k := range oracle {
				if !found || k.Less(id, oracle[best], best) {
					best, found = id, true
				}
			}
			return best, found
		}
		for op := 0; op < 400; op++ {
			id := rng.Intn(n)
			switch rng.Intn(5) {
			case 0, 1: // push, or re-key by Remove then Push
				k := Key{Primary: float64(rng.Intn(20)), Secondary: float64(rng.Intn(3))}
				h.Remove(id)
				h.Push(id, k)
				oracle[id] = k
			case 2: // pop
				wantID, any := min()
				gotID, _, ok := h.Pop()
				if ok != any {
					t.Fatalf("trial %d op %d: Pop ok=%v, oracle non-empty=%v", trial, op, ok, any)
				}
				if ok {
					if gotID != wantID {
						t.Fatalf("trial %d op %d: Pop id=%d, want %d", trial, op, gotID, wantID)
					}
					delete(oracle, gotID)
				}
			case 3: // remove
				_, inOracle := oracle[id]
				if got := h.Remove(id); got != inOracle {
					t.Fatalf("trial %d op %d: Remove(%d)=%v, want %v", trial, op, id, got, inOracle)
				}
				delete(oracle, id)
			case 4: // peek + contains
				wantID, any := min()
				gotID, _, ok := h.Peek()
				if ok != any || (ok && gotID != wantID) {
					t.Fatalf("trial %d op %d: Peek=(%d,%v), want (%d,%v)", trial, op, gotID, ok, wantID, any)
				}
				if h.Contains(id) != func() bool { _, ok := oracle[id]; return ok }() {
					t.Fatalf("trial %d op %d: Contains(%d) mismatch", trial, op, id)
				}
			}
			if h.Len() != len(oracle) {
				t.Fatalf("trial %d op %d: Len=%d, oracle=%d", trial, op, h.Len(), len(oracle))
			}
		}
	}
}

// TestHeapsortProperty: pushing arbitrary float keys and draining the heap
// must yield a non-decreasing sequence (property-based, testing/quick).
func TestHeapsortProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		// Clamp to finite values; NaN has no defined order.
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v == v { // not NaN
				vals = append(vals, v)
			}
		}
		h := New(len(vals))
		for id, v := range vals {
			h.Push(id, Key{Primary: v})
		}
		got := make([]float64, 0, len(vals))
		for {
			_, k, ok := h.Pop()
			if !ok {
				break
			}
			got = append(got, k.Primary)
		}
		if len(got) != len(vals) {
			return false
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeyLess(t *testing.T) {
	cases := []struct {
		a     Key
		aid   int
		b     Key
		bid   int
		want  bool
		descr string
	}{
		{Key{1, 0}, 0, Key{2, 0}, 1, true, "primary smaller"},
		{Key{2, 0}, 0, Key{1, 0}, 1, false, "primary larger"},
		{Key{1, -3}, 0, Key{1, -2}, 1, true, "secondary smaller"},
		{Key{1, -2}, 0, Key{1, -3}, 1, false, "secondary larger"},
		{Key{1, 1}, 0, Key{1, 1}, 1, true, "id smaller"},
		{Key{1, 1}, 1, Key{1, 1}, 0, false, "id larger"},
	}
	for _, c := range cases {
		if got := c.a.Less(c.aid, c.b, c.bid); got != c.want {
			t.Errorf("%s: Less = %v, want %v", c.descr, got, c.want)
		}
	}
}

// TestKeyEncoding checks the record comparator against Key.Less on every
// pair of keys built from fuzzKeys, in both id orders, and that decoding
// returns each key (−0 as +0).
func TestKeyEncoding(t *testing.T) {
	for _, x := range fuzzKeys {
		want := x + 0
		if got := dec(enc(x)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("dec(enc(%v)) = %v (bits %#x)", x, got, math.Float64bits(got))
		}
	}
	if enc(math.Copysign(0, -1)) != enc(0) {
		t.Error("−0 and +0 encode differently")
	}
	for _, a1 := range fuzzKeys {
		for _, a2 := range fuzzKeys {
			for _, b1 := range fuzzKeys {
				for _, b2 := range fuzzKeys {
					a, b := Key{a1, a2}, Key{b1, b2}
					for _, ids := range [][2]int{{0, 1}, {1, 0}, {3, 3}} {
						if got, want := less(mk(ids[0], a), mk(ids[1], b)), a.Less(ids[0], b, ids[1]); got != want {
							t.Fatalf("less(%v#%d, %v#%d) = %v, Key.Less says %v", a, ids[0], b, ids[1], got, want)
						}
					}
				}
			}
		}
	}
}

// TestSharedPositionStore exercises several heaps over one position store
// — FLB's per-processor EP lists — ensuring lookups never cross heaps.
func TestSharedPositionStore(t *testing.T) {
	const n = 16
	pos := NewPos(n)
	a, b := NewShared(pos), NewShared(pos)
	a.Push(3, Key{Primary: 1})
	b.Push(7, Key{Primary: 2})
	// b's id 7 sits at index 0 of b; a's id 3 at index 0 of a. Cross-heap
	// lookups must not leak.
	if b.Contains(3) || a.Contains(7) {
		t.Fatal("Contains leaked across heaps sharing a position store")
	}
	if !a.Contains(3) || !b.Contains(7) {
		t.Fatal("Contains lost track of own items")
	}
	if a.Remove(7) || b.Remove(3) {
		t.Fatal("Remove acted across heaps")
	}
	// Move 3 from a to b (the FLB EP->non-EP style migration).
	if !a.Remove(3) {
		t.Fatal("Remove(3) failed")
	}
	b.Push(3, Key{Primary: 0.5})
	if id, _, _ := b.Peek(); id != 3 {
		t.Fatalf("b head = %d, want 3", id)
	}
	if a.Len() != 0 || b.Len() != 2 {
		t.Fatalf("lens = %d, %d", a.Len(), b.Len())
	}
}

// TestSharedRandomAgainstOracle drives K sibling heaps with random ops and
// checks them against independent oracles.
func TestSharedRandomAgainstOracle(t *testing.T) {
	const n, k = 40, 4
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		pos := NewPos(n)
		heaps := make([]*Heap, k)
		for i := range heaps {
			heaps[i] = NewShared(pos)
		}
		owner := make([]int, n) // which heap holds id, -1 none
		oracle := make([]map[int]Key, k)
		for i := range oracle {
			oracle[i] = map[int]Key{}
		}
		for i := range owner {
			owner[i] = -1
		}
		for op := 0; op < 300; op++ {
			id := rng.Intn(n)
			h := rng.Intn(k)
			switch rng.Intn(3) {
			case 0: // push into h if free
				if owner[id] == -1 {
					key := Key{Primary: rng.Float64()}
					heaps[h].Push(id, key)
					oracle[h][id] = key
					owner[id] = h
				}
			case 1: // remove from wherever it is
				if o := owner[id]; o >= 0 {
					if !heaps[o].Remove(id) {
						t.Fatal("Remove lost an owned item")
					}
					delete(oracle[o], id)
					owner[id] = -1
				} else if heaps[h].Remove(id) {
					t.Fatal("Remove of unowned id succeeded")
				}
			case 2: // pop from h
				gotID, _, ok := heaps[h].Pop()
				if ok != (len(oracle[h]) > 0) {
					t.Fatal("Pop ok mismatch")
				}
				if ok {
					best := -1
					for cand, ck := range oracle[h] {
						if best == -1 || ck.Less(cand, oracle[h][best], best) {
							best = cand
						}
					}
					if gotID != best {
						t.Fatalf("Pop = %d, oracle %d", gotID, best)
					}
					delete(oracle[h], gotID)
					owner[gotID] = -1
				}
			}
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1024
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := New(n)
		for id := 0; id < n; id++ {
			h.Push(id, Key{Primary: keys[id]})
		}
		for !h.Empty() {
			h.Pop()
		}
	}
}
