package machine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCliqueCost(t *testing.T) {
	c := Clique{}
	if got := c.Cost(5, 0, 0); got != 0 {
		t.Errorf("same-proc cost = %v, want 0", got)
	}
	if got := c.Cost(5, 0, 1); got != 5 {
		t.Errorf("cross-proc cost = %v, want 5", got)
	}
	if c.Name() != "clique" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestCliqueSymmetryProperty(t *testing.T) {
	// The clique is homogeneous: cost depends only on whether procs differ.
	prop := func(w float64, a, b uint8) bool {
		if w < 0 {
			w = -w
		}
		c := Clique{}
		return c.Cost(w, int(a), int(b)) == c.Cost(w, int(b), int(a))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// shadowClique embeds Clique but defines its own Cost, so it is a
// different model that the Clique fast path must not capture. It counts
// its calls.
type shadowClique struct {
	Clique
	calls *int
}

func (m shadowClique) Cost(w float64, from, to Proc) float64 {
	*m.calls++
	if from == to {
		return 0
	}
	return 2*w + 1
}

// TestCommCostFastPath: CommCost and RemoteCost return, bit for bit,
// what the model's Cost returns through the interface (Clique's for a
// nil model) — for the models answered inline and for the rest — and
// every model other than Clique is still called.
func TestCommCostFastPath(t *testing.T) {
	calls := 0
	models := []CommModel{nil, Clique{}, &Clique{}, shadowClique{calls: &calls}, LatencyBandwidth{Latency: 2, Bandwidth: 4}}
	weights := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1.5, 3, math.MaxFloat64, math.Inf(1)}
	pairs := [][2]Proc{{0, 0}, {3, 3}, {0, 1}, {1, 0}, {2, 7}, {0, -1}}
	for _, m := range models {
		sys := System{P: 8, Comm: m}
		ref := m
		if ref == nil {
			ref = Clique{}
		}
		for _, w := range weights {
			for _, pr := range pairs {
				got, want := sys.CommCost(w, pr[0], pr[1]), ref.Cost(w, pr[0], pr[1])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%T: CommCost(%v, %d, %d) = %v, Cost says %v", m, w, pr[0], pr[1], got, want)
				}
			}
			got, want := sys.RemoteCost(w), ref.Cost(w, 0, -1)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%T: RemoteCost(%v) = %v, Cost says %v", m, w, got, want)
			}
		}
	}
	// The reference loop calls shadowClique.Cost once per CommCost and
	// once per RemoteCost; the System methods must have called it too.
	if want := 2 * len(weights) * (len(pairs) + 1); calls != want {
		t.Errorf("shadowClique.Cost called %d times, want %d", calls, want)
	}
	lb := System{P: 2, Comm: LatencyBandwidth{Latency: 2, Bandwidth: 4}}
	if got := lb.RemoteCost(8); got != 4 {
		t.Errorf("LatencyBandwidth RemoteCost(8) = %v, want 4", got)
	}
}

func TestLatencyBandwidth(t *testing.T) {
	m := LatencyBandwidth{Latency: 2, Bandwidth: 4}
	if got := m.Cost(8, 1, 1); got != 0 {
		t.Errorf("same-proc cost = %v, want 0", got)
	}
	if got, want := m.Cost(8, 0, 1), 2+8.0/4; got != want {
		t.Errorf("cost = %v, want %v", got, want)
	}
	if !strings.Contains(m.Name(), "latency=2") {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestSystem(t *testing.T) {
	s := NewSystem(4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.CommCost(3, 0, 2); got != 3 {
		t.Errorf("CommCost = %v, want 3", got)
	}
	if got := s.CommCost(3, 2, 2); got != 0 {
		t.Errorf("CommCost same proc = %v, want 0", got)
	}
	// nil Comm falls back to Clique.
	s2 := System{P: 2}
	if got := s2.CommCost(3, 0, 1); got != 3 {
		t.Errorf("nil-model CommCost = %v, want 3", got)
	}
}

func TestSystemValidate(t *testing.T) {
	for _, p := range []int{0, -3} {
		if err := (System{P: p}).Validate(); err == nil {
			t.Errorf("Validate accepted P=%d", p)
		}
	}
}

// TestCommValidate checks that Validate rejects a LatencyBandwidth model
// that would produce negative or NaN message delays, naming the field.
func TestCommValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		m     LatencyBandwidth
		field string // "" = valid
	}{
		{LatencyBandwidth{Latency: 1, Bandwidth: 2}, ""},
		{LatencyBandwidth{Latency: 0, Bandwidth: 0.5}, ""},
		{LatencyBandwidth{Latency: 1, Bandwidth: inf}, ""},
		{LatencyBandwidth{Latency: -100, Bandwidth: 1}, "latency"},
		{LatencyBandwidth{Latency: nan, Bandwidth: 1}, "latency"},
		{LatencyBandwidth{Latency: inf, Bandwidth: 1}, "latency"},
		{LatencyBandwidth{Latency: -inf, Bandwidth: 1}, "latency"},
		{LatencyBandwidth{Latency: 1, Bandwidth: nan}, "bandwidth"},
		{LatencyBandwidth{Latency: 1, Bandwidth: 0}, "bandwidth"},
		{LatencyBandwidth{Latency: 1, Bandwidth: -1}, "bandwidth"},
		{LatencyBandwidth{Latency: 1, Bandwidth: -inf}, "bandwidth"},
	}
	for _, c := range cases {
		err := System{P: 2, Comm: c.m}.Validate()
		switch {
		case c.field == "" && err != nil:
			t.Errorf("%+v rejected: %v", c.m, err)
		case c.field != "" && err == nil:
			t.Errorf("%+v accepted", c.m)
		case c.field != "" && !strings.HasPrefix(err.Error(), "machine: "+c.field+" = "):
			t.Errorf("%+v: error %q does not name %s", c.m, err, c.field)
		}
	}
}

func TestSpeedsValidate(t *testing.T) {
	if err := (System{P: 2, Speeds: []float64{2, 1}}).Validate(); err != nil {
		t.Errorf("valid speeds rejected: %v", err)
	}
	bad := [][]float64{
		{2},                                 // wrong length
		{2, 1, 1},                           // wrong length
		{0, 1},                              // zero
		{-1, 1},                             // negative
		{math.NaN(), 1},                     // NaN
		{math.Inf(1), 1},                    // +Inf
		{1, math.Inf(-1)},                   // -Inf
		{math.SmallestNonzeroFloat64, -0.0}, // negative zero is not > 0
	}
	for _, speeds := range bad {
		if err := (System{P: 2, Speeds: speeds}).Validate(); err == nil {
			t.Errorf("Validate accepted speeds %v", speeds)
		}
	}
}

func TestCanonicalSpeeds(t *testing.T) {
	if got := CanonicalSpeeds(nil); got != nil {
		t.Errorf("CanonicalSpeeds(nil) = %v", got)
	}
	if got := CanonicalSpeeds([]float64{1, 1, 1}); got != nil {
		t.Errorf("all-1.0 did not collapse to nil: %v", got)
	}
	in := []float64{2, 1}
	got := CanonicalSpeeds(in)
	if got == nil || got[0] != 2 || got[1] != 1 {
		t.Fatalf("CanonicalSpeeds(%v) = %v", in, got)
	}
	in[0] = 99 // the canonical form must be a copy, not an alias
	if got[0] != 2 {
		t.Errorf("CanonicalSpeeds aliased its input")
	}
}

func TestSpeedAccessors(t *testing.T) {
	homo := NewSystem(3)
	if homo.Speed(1) != 1 || homo.MaxSpeed() != 1 || !homo.UnitSpeeds() || homo.Heterogeneous() {
		t.Errorf("homogeneous accessors: Speed=%g MaxSpeed=%g Unit=%v Het=%v",
			homo.Speed(1), homo.MaxSpeed(), homo.UnitSpeeds(), homo.Heterogeneous())
	}
	if got := homo.ExecTime(7, 2); got != 7 {
		t.Errorf("homogeneous ExecTime = %g, want 7", got)
	}

	het := System{P: 3, Speeds: []float64{4, 1, 2}}
	if het.Speed(0) != 4 || het.MaxSpeed() != 4 {
		t.Errorf("Speed/MaxSpeed = %g/%g, want 4/4", het.Speed(0), het.MaxSpeed())
	}
	if got := het.ExecTime(8, 0); got != 2 {
		t.Errorf("ExecTime(8, speed 4) = %g, want 2", got)
	}
	if het.UnitSpeeds() || !het.Heterogeneous() {
		t.Errorf("het accessors: Unit=%v Het=%v", het.UnitSpeeds(), het.Heterogeneous())
	}

	// Uniformly scaled: not unit, but not heterogeneous either — the
	// decision path stays homogeneous, only the timing scales.
	scaled := System{P: 2, Speeds: []float64{3, 3}}
	if scaled.UnitSpeeds() || scaled.Heterogeneous() {
		t.Errorf("scaled accessors: Unit=%v Het=%v, want false/false",
			scaled.UnitSpeeds(), scaled.Heterogeneous())
	}

	// All-1.0 speeds are the homogeneous machine in every observable way.
	unit := System{P: 2, Speeds: []float64{1, 1}}
	if !unit.UnitSpeeds() || unit.Heterogeneous() || unit.ExecTime(5, 0) != 5 {
		t.Errorf("unit-vector accessors diverge from nil")
	}
}
