package main

import (
	"math"
	"slices"
	"time"
)

// Percentiles are written in parts per thousand so that ranks are exact
// integer arithmetic: 500 is the median, 990 is p99, 999 is p99.9.
const (
	p50  = 500
	p90  = 900
	p99  = 990
	p999 = 999
)

// minTail is how many samples must lie beyond a reported tail percentile
// for it to mean anything.
const minTail = 10

// rank is the 1-based nearest-rank position of per-mille percentile q in
// n sorted samples: ceil(q·n/1000).
func rank(q, n int) int {
	r := (q*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is how many of n samples lie strictly above percentile q.
func beyond(q, n int) int { return n - rank(q, n) }

// TailPercentile returns the highest of p99.9, p99, p90 and p50 with at
// least minTail samples beyond it among n samples, or 0 when even the
// median has fewer.
func TailPercentile(n int) int {
	for _, q := range []int{p999, p99, p90, p50} {
		if beyond(q, n) >= minTail {
			return q
		}
	}
	return 0
}

// Percentile returns the nearest-rank per-mille percentile q of sorted
// (ascending). It returns 0 for no samples.
func Percentile[T int64 | float64 | time.Duration](sorted []T, q int) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// Sorted returns an ascending copy of xs.
func Sorted[T int64 | float64 | time.Duration](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// Median returns the median of xs (the mean of the middle pair for an
// even count), NaN for none.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
