package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the value at 1-based rank ceil(p/100 * n) of the sorted samples. xs is not
// modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rankOf(len(s), p)-1]
}

func rankOf(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{99, 95, 90, 75}

// supportedTail returns the highest candidate percentile that still has at
// least ten of the n samples strictly beyond its nearest-rank position, and
// 50 when none does: a tail read off fewer than ten samples is noise.
func supportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if n-rankOf(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles returns the median and the first and third quartiles of xs the
// way Python's statistics.quantiles(xs, n=4) (exclusive method) computes
// them, so spreads printed here match the ones the PR driver derives from the
// same values. Fewer than two samples have no spread: all three are the value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b with 0 for an empty denominator, for per-event and per-query
// shares whose base can be absent on a workload that bypasses the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
