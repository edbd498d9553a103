package pq

import (
	"math/rand"
	"testing"
)

func TestTreeEmpty(t *testing.T) {
	var zero Tree
	if _, _, ok := zero.Min(); ok || zero.Len() != 0 {
		t.Error("zero Tree is not empty")
	}
	var tr Tree
	tr.Init(5)
	if _, _, ok := tr.Min(); ok || tr.Len() != 0 {
		t.Error("new Tree is not empty")
	}
	tr.Clear(3) // clearing an id that is not set changes nothing
	if tr.Len() != 0 {
		t.Errorf("Len = %d after clearing an unset id", tr.Len())
	}
}

func TestTreeSetMovesMin(t *testing.T) {
	var tr Tree
	tr.Init(3)
	tr.Set(0, Key{Primary: 10})
	tr.Set(1, Key{Primary: 20})
	tr.Set(2, Key{Primary: 30})

	tr.Set(2, Key{Primary: 5}) // decrease-key: becomes the minimum
	if id, _, _ := tr.Min(); id != 2 {
		t.Fatalf("after decrease-key, Min = %d, want 2", id)
	}
	tr.Set(2, Key{Primary: 25}) // increase-key: loses it again
	if id, k, _ := tr.Min(); id != 0 || k.Primary != 10 {
		t.Fatalf("after increase-key, Min = (%d, %v), want (0, 10)", id, k.Primary)
	}
	tr.Clear(0)
	if id, k, _ := tr.Min(); id != 1 || k.Primary != 20 {
		t.Fatalf("after Clear(0), Min = (%d, %v), want (1, 20)", id, k.Primary)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestTreeSetAddsOrRekeys(t *testing.T) {
	var tr Tree
	tr.Init(2)
	tr.Set(0, Key{Primary: 7})
	tr.Set(1, Key{Primary: 3})
	tr.Set(0, Key{Primary: 1}) // re-key an id that is set
	if id, k, _ := tr.Min(); id != 0 || k.Primary != 1 {
		t.Fatalf("Min = (%d, %v), want (0, 1)", id, k.Primary)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestTreeOutOfRangePanics(t *testing.T) {
	for _, id := range []int{-1, 3, 4} {
		for name, op := range map[string]func(*Tree){
			"Set":   func(tr *Tree) { tr.Set(id, Key{}) },
			"Clear": func(tr *Tree) { tr.Clear(id) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on a 3-id tree did not panic", name, id)
					}
				}()
				var tr Tree
				tr.Init(3)
				op(&tr)
			}()
		}
	}
}

// TestTreeSteadyStateAllocs: once a tree has held n ids, re-initializing
// it for n or fewer and updating it allocates nothing.
func TestTreeSteadyStateAllocs(t *testing.T) {
	var tr Tree
	tr.Init(32)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Init(32)
		for id := 0; id < 32; id++ {
			tr.Set(id, Key{Primary: float64(id % 5)})
		}
		tr.Clear(7)
		tr.Set(3, Key{Primary: -1, Secondary: 2})
		tr.Min()
		tr.Init(17)
		tr.Set(16, Key{Primary: 1})
	})
	if allocs != 0 {
		t.Errorf("Init plus updates at capacity: %v allocs/run, want 0", allocs)
	}
}

// BenchmarkTreeSet measures a processor list's step: read the
// earliest-idle of 32 processors and advance its ready time.
func BenchmarkTreeSet(b *testing.B) {
	const n = 32
	rng := rand.New(rand.NewSource(1))
	step := make([]float64, 1024)
	for i := range step {
		step[i] = rng.Float64()
	}
	var tr Tree
	tr.Init(n)
	for id := 0; id < n; id++ {
		tr.Set(id, Key{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, k, _ := tr.Min()
		tr.Set(id, Key{Primary: k.Primary + step[i&1023]})
	}
}
