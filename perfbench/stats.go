package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is a set of measurements of one quantity. Its quantiles
// interpolate linearly between closest ranks, the rule of numpy's default
// and of Python's statistics.quantiles(method="inclusive").
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile, q in [0, 1]; NaN when s is empty.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func (s sample) median() float64 { return s.quantile(0.5) }

// iqr is the distance between the first and third quartile.
func (s sample) iqr() float64 { return s.quantile(0.75) - s.quantile(0.25) }

func (s sample) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// tailPercentiles are the percentiles the tail rule chooses from, highest
// first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail applies the reporting rule for tail latency: the highest percentile
// (99 at most) that has at least ten samples beyond it. With too few
// samples for any of them it reports the maximum. label names the choice,
// "p99" when the 99th percentile qualifies.
func (s sample) tail() (label string, value float64) {
	for _, p := range tailPercentiles {
		// Samples strictly above the p-th percentile's rank; the small
		// slack keeps n·p/100 from rounding up past an exact integer.
		beyond := len(s) - int(math.Ceil(float64(len(s))*p/100-1e-9))
		if beyond >= minBeyond {
			return fmt.Sprintf("p%g", p), s.quantile(p / 100)
		}
	}
	if len(s) == 0 {
		return "max", math.NaN()
	}
	return "max", s.sorted()[len(s)-1]
}

// windowOps is the smallest window windowedTail splits a run into: enough
// samples for a 99th percentile with ten beyond it.
const windowOps = 1000

// windowedTail reports the tail of a run recorded in time order as the
// median of the tail of each consecutive window of at least windowOps
// samples, so one burst of host noise moves one window's value, not the
// result. With fewer than two windows' worth it falls back to tail.
func (s sample) windowedTail() (label string, value float64) {
	k := len(s) / windowOps
	if k < 2 {
		return s.tail()
	}
	var tails sample
	for i := 0; i < k; i++ {
		label, v := s[i*len(s)/k : (i+1)*len(s)/k].tail()
		if label != "p99" {
			return s.tail()
		}
		tails = append(tails, v)
	}
	return fmt.Sprintf("p99, median of %d windows", k), tails.median()
}
