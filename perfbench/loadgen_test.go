package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or an operation
// spends time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	// 100 req/s for 100 ms: 10 requests due every 10 ms. Each takes
	// 1 ms, except request 2, which stalls for 35 ms.
	var dues []time.Time
	samples := OpenLoop(clk, start, 100, 100*time.Millisecond, time.Second, func(k int, due time.Time) error {
		dues = append(dues, due)
		if k == 2 {
			clk.Sleep(35 * time.Millisecond)
		} else {
			clk.Sleep(time.Millisecond)
		}
		return nil
	})
	if len(samples) != 10 {
		t.Fatalf("%d samples, want 10", len(samples))
	}
	for k, s := range samples {
		if want := time.Duration(k) * 10 * time.Millisecond; s.Due != want || dues[k] != start.Add(want) {
			t.Fatalf("request %d due %v (told %v), want %v", k, s.Due, dues[k].Sub(start), want)
		}
	}
	// Request 2 is sent on time and takes 35 ms.
	if got := samples[2].Latency(); got != 35*time.Millisecond {
		t.Errorf("stalled request latency %v, want 35ms", got)
	}
	// Request 3 was due at 30 ms but could only be sent at 55 ms: it is
	// 25 ms late and its latency, timed from the due time, is 26 ms.
	if got := samples[3].Late(); got != 25*time.Millisecond {
		t.Errorf("request 3 late %v, want 25ms", got)
	}
	if got := samples[3].Latency(); got != 26*time.Millisecond {
		t.Errorf("request 3 latency %v, want 26ms", got)
	}
	// Request 4 (due 40 ms) goes at 56 ms; request 5 (due 50 ms) at 57;
	// request 6 (due 60 ms) is on time again.
	if got := samples[4].Late(); got != 16*time.Millisecond {
		t.Errorf("request 4 late %v, want 16ms", got)
	}
	if got := samples[6].Late(); got != 0 {
		t.Errorf("request 6 late %v, want 0", got)
	}
	st := Summarize(samples)
	if st.LateMax != 25*time.Millisecond {
		t.Errorf("LateMax %v, want 25ms", st.LateMax)
	}
	if st.Errors != 0 || st.N != 10 {
		t.Errorf("N %d errors %d", st.N, st.Errors)
	}
	// Latencies are 1 ms ×6, 35, 26, 17, 8 ms: the median is 1 ms, and
	// with ten samples no percentile has ten beyond it, so the tail is
	// the maximum.
	if st.P50 != time.Millisecond || st.TailQ != 1000 || st.Tail != 35*time.Millisecond {
		t.Errorf("p50 %v tail p%d %v", st.P50, st.TailQ, st.Tail)
	}
}

func TestOpenLoopAbortsAStalledSchedule(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	samples := OpenLoop(clk, clk.now, 100, 100*time.Millisecond, 50*time.Millisecond, func(k int, _ time.Time) error {
		clk.Sleep(200 * time.Millisecond) // every request hangs
		return nil
	})
	if len(samples) != 10 {
		t.Fatalf("%d samples, want all 10 accounted for", len(samples))
	}
	if samples[0].Err {
		t.Error("the first request completed and is not an error")
	}
	for _, s := range samples[1:] {
		if !s.Err {
			t.Fatal("requests dropped after the abort must count as errors")
		}
	}
	if st := Summarize(samples); st.Errors != 9 {
		t.Errorf("%d errors, want 9", st.Errors)
	}
}
