package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail estimated from fewer is one or two outliers.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and
// the number of samples strictly beyond that rank. It returns ok=false
// for an empty sample.
func nearestRank(xs []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	// The epsilon keeps q·n that should be whole (0.07·100 is
	// 7.000000000000001 in floating point) from rounding up a rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = max(1, min(rank, n))
	return sorted(xs)[rank-1], n - rank, true
}

// median is the nearest-rank median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	v, _, _ := nearestRank(xs, 0.5)
	return v
}

// percentile is the nearest-rank q-quantile of xs, reported only when
// at least minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	v, beyond, ok := nearestRank(xs, q)
	return v, ok && beyond >= minBeyond
}

// tail picks the highest of p99.9, p99 and p90 that has at least
// minBeyond samples beyond it.
func tail(xs []float64) (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if v, ok := percentile(xs, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}
