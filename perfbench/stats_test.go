package main

import (
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, want int
	}{
		{9, 0},
		{19, 0},
		{20, p50},
		{99, p50},
		{100, p90},
		{999, p90},
		{1000, p99},
		{9999, p99},
		{10000, p999},
	} {
		q := TailPercentile(tc.n)
		if q != tc.want {
			t.Errorf("TailPercentile(%d) = %d, want %d", tc.n, q, tc.want)
		}
		if q != 0 && beyond(q, tc.n) < minTail {
			t.Errorf("n=%d: p%d has %d samples beyond it", tc.n, q, beyond(q, tc.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..1000
	}
	if got := Percentile(xs, p50); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := Percentile(xs, p99); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
	if got := beyond(p99, len(xs)); got != 10 {
		t.Errorf("samples beyond p99 of 1000 = %d, want 10", got)
	}
	if got := Percentile([]time.Duration{7}, p999); got != 7 {
		t.Errorf("single-sample p99.9 = %v, want 7", got)
	}
	if got := Percentile([]float64(nil), p50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
