package pq

import (
	"math"
	"sort"
	"testing"
)

// fuzzKeys is FuzzHeap's key alphabet: the small integers 0-7, so ties
// are common, then the values where an order-preserving float encoding
// can go wrong — the infinities, the largest finite magnitudes, −1, the
// smallest subnormals and both zeros. A key byte indexes it modulo its
// length; −0 sits at index 13 and +0 at index 0.
var fuzzKeys = []float64{
	0, 1, 2, 3, 4, 5, 6, 7,
	math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
	math.SmallestNonzeroFloat64, math.Copysign(0, -1), math.MaxFloat64, math.Inf(1),
}

// FuzzHeap drives two heaps sharing one position store through a random
// sequence of Push, Pop and Remove and checks them against a map-based
// reference model:
// membership, keys, and — after every mutation batch — the full pop order
// against a sort by the same (primary, secondary, id) total order. It also
// exercises Reset-and-reuse, the lifecycle the scheduler arenas depend on.
// Keys are drawn from fuzzKeys; the oracle compares with Key.Less and ==,
// under which −0 and +0 are the same key.
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 3, 0, 9, 0, 17, 4, 4})
	f.Add([]byte{9, 0, 8, 1, 7, 2, 6, 3, 5, 4, 0xff, 0xfe})
	// −0 and +0 primaries tie and fall through to the secondary key, then
	// (with −0/+0 secondaries too) to the id; then a pop drains them.
	f.Add([]byte{0, 3, 13, 2, 0, 1, 0, 1, 0, 2, 13, 13, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{0, 5, 13, 13, 0, 4, 0, 0, 0, 6, 13, 0, 0, 7, 0, 13, 1, 0, 0, 0, 1, 0, 0, 0})
	// Every special value as a primary, pushed in descending order.
	f.Add([]byte{0, 0, 15, 0, 0, 1, 14, 0, 0, 2, 12, 0, 0, 3, 13, 0, 0, 4, 0, 0,
		0, 5, 11, 0, 0, 6, 10, 0, 0, 7, 9, 0, 0, 8, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16 // id universe; small so collisions are common
		pos := NewPos(n)
		heaps := [2]*Heap{NewShared(pos), NewShared(pos)}
		models := [2]map[int]Key{{}, {}}

		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			b := data[*i]
			*i++
			return b
		}
		for i := 0; i < len(data); {
			op := next(&i)
			h := int(op>>6) & 1 // which heap
			id := int(next(&i)) % n
			key := Key{Primary: fuzzKeys[int(next(&i))%len(fuzzKeys)], Secondary: fuzzKeys[int(next(&i))%len(fuzzKeys)]}
			switch op % 3 {
			case 0:
				// Push is only legal for absent ids: an id may live in at
				// most one heap of a shared store at a time.
				if !heaps[0].Contains(id) && !heaps[1].Contains(id) {
					heaps[h].Push(id, key)
					models[h][id] = key
				}
			case 1:
				id2, k2, ok := heaps[h].Pop()
				if ok != (len(models[h]) > 0) {
					t.Fatalf("Pop ok=%v with %d modeled entries", ok, len(models[h]))
				}
				if !ok {
					break
				}
				wantID, wantKey := minOf(models[h])
				if id2 != wantID || k2 != wantKey {
					t.Fatalf("Pop = (%d, %+v), reference model says (%d, %+v)", id2, k2, wantID, wantKey)
				}
				delete(models[h], id2)
			case 2:
				removed := heaps[h].Remove(id)
				if _, inModel := models[h][id]; removed != inModel {
					t.Fatalf("Remove(%d) = %v, model membership %v", id, removed, inModel)
				}
				delete(models[h], id)
			}
			check(t, heaps[0], models[0])
			check(t, heaps[1], models[1])
		}

		// Drain both heaps and compare the complete pop order against the
		// reference sort; then Reset and reuse, which must behave like new.
		for round := 0; round < 2; round++ {
			for h := range heaps {
				want := sortedIDs(models[h])
				for _, wid := range want {
					id, key, ok := heaps[h].Pop()
					if !ok || id != wid || key != models[h][wid] {
						t.Fatalf("drain: Pop = (%d, ok=%v), want id %d", id, ok, wid)
					}
				}
				if !heaps[h].Empty() {
					t.Fatalf("heap %d not empty after draining the model", h)
				}
			}
			if round == 1 {
				break
			}
			heaps[0].Reset()
			heaps[1].Reset()
			for h := range heaps {
				models[h] = map[int]Key{}
			}
			// Refill after Reset from whatever bytes remain (or a fixed
			// pattern for short inputs) to prove the store was cleaned.
			for j := 0; j < n; j += 2 {
				k := Key{Primary: float64((j * 7) % 5), Secondary: float64(j % 3)}
				heaps[j%2].Push(j, k)
				models[j%2][j] = k
			}
		}
	})
}

// FuzzTree drives one Tree through a random sequence of Set, Clear and
// re-Init over 1 to 70 ids — powers of two and not — and after every
// operation checks Min and Len against a brute-force argmin of a
// reference model by Key.Less, then id. The first byte picks the id
// range; then each operation takes four bytes: the operation, the id (or
// the new range), and two fuzzKeys indices for the key.
func FuzzTree(f *testing.F) {
	f.Add([]byte{15, 0, 3, 1, 2, 0, 7, 4, 4, 1, 3, 0, 0, 0, 9, 5, 5})
	f.Add([]byte{63, 0, 0, 0, 0, 0, 63, 0, 0, 1, 0, 0, 0, 1, 63, 0, 0, 2, 63, 0, 0})
	// −0 and +0 tie on both key components, so the smaller id must win;
	// then the minimum is cleared and the tie resolves again.
	f.Add([]byte{4, 0, 3, 13, 13, 0, 1, 0, 0, 0, 2, 13, 0, 2, 1, 0, 0, 1, 3, 0, 0})
	// Every special value as a primary, set in descending order.
	f.Add([]byte{15, 0, 0, 15, 0, 0, 1, 14, 0, 0, 2, 12, 0, 0, 3, 13, 0, 0, 4, 0, 0,
		0, 5, 11, 0, 0, 6, 10, 0, 0, 7, 9, 0, 0, 8, 8, 0})
	// Shrink and grow the range across re-Inits (storage reuse).
	f.Add([]byte{69, 0, 68, 1, 2, 3, 2, 0, 0, 0, 1, 5, 5, 3, 40, 0, 0, 0, 39, 15, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const maxIDs = 70
		n := 1 + int(data[0])%maxIDs
		var tr Tree
		tr.Init(n)
		model := map[int]Key{}
		for i := 1; i+3 < len(data); i += 4 {
			op, id := data[i], int(data[i+1])
			key := Key{Primary: fuzzKeys[int(data[i+2])%len(fuzzKeys)], Secondary: fuzzKeys[int(data[i+3])%len(fuzzKeys)]}
			switch op % 4 {
			case 0, 1:
				tr.Set(id%n, key)
				model[id%n] = key
			case 2:
				tr.Clear(id % n)
				delete(model, id%n)
			case 3:
				n = 1 + id%maxIDs
				tr.Init(n)
				model = map[int]Key{}
			}
			if tr.Len() != len(model) {
				t.Fatalf("Len = %d, model has %d", tr.Len(), len(model))
			}
			gotID, gotKey, ok := tr.Min()
			if ok != (len(model) > 0) {
				t.Fatalf("Min ok=%v with %d modeled entries", ok, len(model))
			}
			if ok {
				if wantID, wantKey := minOf(model); gotID != wantID || gotKey != wantKey {
					t.Fatalf("Min = (%d, %+v), reference model says (%d, %+v)", gotID, gotKey, wantID, wantKey)
				}
			}
		}
	})
}

// check validates heap h against its model: size, membership and keys.
func check(t *testing.T, h *Heap, model map[int]Key) {
	t.Helper()
	if h.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", h.Len(), len(model))
	}
	for id, k := range model {
		if !h.Contains(id) {
			t.Fatalf("heap lost id %d", id)
		}
		if got := h.Key(id); got != k {
			t.Fatalf("Key(%d) = %+v, model %+v", id, got, k)
		}
	}
}

// minOf returns the model entry that Key.Less orders first.
func minOf(model map[int]Key) (int, Key) {
	first := true
	var bestID int
	var bestKey Key
	for id, k := range model {
		if first || k.Less(id, bestKey, bestID) {
			bestID, bestKey, first = id, k, false
		}
	}
	return bestID, bestKey
}

// sortedIDs returns the model's ids in Key.Less order — the exact pop
// order any correct heap must produce, independent of its arity.
func sortedIDs(model map[int]Key) []int {
	ids := make([]int, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		return model[ids[a]].Less(ids[a], model[ids[b]], ids[b])
	})
	return ids
}
