package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank index of percentile p (0 < p < 100) in
// n sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(i, n-1))
}

// percentile returns the nearest-rank p-th percentile of xs and whether
// at least minBeyond samples lie above it. A percentile without that
// many samples beyond it is not reported as a tail.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := rank(len(s), p)
	return s[i], len(s)-1-i >= minBeyond
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// latencySummary describes latency samples (seconds) for provenance:
// p50 and p99 in milliseconds, whether the p99 has at least minBeyond
// samples beyond it, and the sample count behind both.
func latencySummary(xs []float64) map[string]any {
	p99, ok := percentile(xs, 99)
	return map[string]any{"p50_ms": median(xs) * 1e3, "p99_ms": p99 * 1e3, "p99_has_10_beyond": ok, "samples": len(xs)}
}
