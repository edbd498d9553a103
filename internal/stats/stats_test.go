package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestStd(t *testing.T) {
	if got := Std([]float64{5}); got != 0 {
		t.Errorf("Std of one sample = %v", got)
	}
	// Population std of {2, 4}: mean 3, var 1.
	if got := Std([]float64{2, 4}); got != 1 {
		t.Errorf("Std = %v, want 1", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{0, 0}); got != 0 {
		t.Errorf("CV of zero-mean = %v", got)
	}
	if got := CV([]float64{2, 4}); got != 1.0/3 {
		t.Errorf("CV = %v, want 1/3", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestMinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Max(nil) did not panic")
		}
	}()
	Max(nil)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Errorf("String = %q", s.String())
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("Summarize(nil) = %+v", z)
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6 && Std(xs) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantilesOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	want := Quantiles{Count: 100, Mean: 50.5, P50: 50, P90: 90, P99: 99, Max: 100}
	if got := QuantilesOf(xs); got != want {
		t.Errorf("QuantilesOf(shuffled 1..100) = %+v, want %+v", got, want)
	}
	if got := QuantilesOf(nil); got != (Quantiles{}) {
		t.Errorf("QuantilesOf(nil) = %+v, want the zero digest", got)
	}
}
