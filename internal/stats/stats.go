// Package stats provides the small set of descriptive statistics the
// module reports: means, dispersion and extrema for the benchmark
// harness, and the exact percentile digest behind the latency figures
// of flbd's /metrics (internal/svc) and of cmd/flbload's report.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs, or 0 for fewer than
// two samples.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// CV returns the coefficient of variation Std/Mean, or 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Std(xs) / m
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the descriptive statistics of one sample set.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  Std(xs),
		Min:  Min(xs),
		Max:  Max(xs),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.2g min=%.4g max=%.4g", s.N, s.Mean, s.Std, s.Min, s.Max)
}

// Quantiles is an exact percentile digest of one sample set. The JSON
// tags are those of the latency blocks in flbd's /metrics and in
// flbload's report, which both carry it.
type Quantiles struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// QuantilesOf sorts xs in place and digests it: the count, the mean, the
// maximum, and the p-th percentiles at sorted index ⌊p·(n−1)⌋ — always a
// sample, never an interpolation. An empty xs gives the zero digest.
func QuantilesOf(xs []float64) Quantiles {
	q := Quantiles{Count: int64(len(xs))}
	if len(xs) == 0 {
		return q
	}
	sort.Float64s(xs)
	at := func(p float64) float64 { return xs[int(p*float64(len(xs)-1))] }
	q.Mean = Mean(xs)
	q.P50, q.P90, q.P99, q.Max = at(0.50), at(0.90), at(0.99), xs[len(xs)-1]
	return q
}
