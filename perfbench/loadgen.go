package main

import (
	"time"
)

// Clock is the time source of the open-loop generator; tests substitute
// a simulated one.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// Sample is one operation of an open-loop schedule. Times are offsets
// from the schedule's start.
type Sample struct {
	Due  time.Duration // when the schedule wanted the request sent
	Send time.Duration // when the generator actually sent it
	Done time.Duration // when the reply arrived
	Err  bool
}

// Latency is timed from the due time, so a stall that delays later
// requests is charged to them too (no coordinated omission).
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind its schedule the generator sent the request.
func (s Sample) Late() time.Duration { return s.Send - s.Due }

// OpenLoop issues op on a fixed schedule: operation k is due at
// start + k/rate, for every k due before start + dur, and op is told
// its due time. It runs on the
// calling goroutine with one request outstanding, as a client with one
// connection does: when the system is slower than the schedule the
// generator falls behind, and both the latency and the lateness of the
// following requests show it. abortAfter bounds how long past dur a
// stalled schedule may run before the remaining requests are dropped
// (they are reported as errors).
func OpenLoop(clk Clock, start time.Time, rate float64, dur, abortAfter time.Duration, op func(k int, due time.Time) error) []Sample {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	out := make([]Sample, 0, n)
	for k := 0; k < n; k++ {
		due := time.Duration(k) * interval
		now := clk.Now().Sub(start)
		if now > dur+abortAfter {
			for ; k < n; k++ {
				d := time.Duration(k) * interval
				out = append(out, Sample{Due: d, Send: now, Done: now, Err: true})
			}
			break
		}
		if now < due {
			clk.Sleep(due - now)
			now = clk.Now().Sub(start)
		}
		err := op(k, start.Add(due))
		out = append(out, Sample{Due: due, Send: now, Done: clk.Now().Sub(start), Err: err != nil})
	}
	return out
}

// StageStats summarizes one client's samples.
type StageStats struct {
	N      int
	Errors int
	P50    time.Duration
	// Tail is the latency at per-mille percentile TailQ, the highest
	// with at least minTail samples beyond it (the maximum when even the
	// median lacks them).
	Tail    time.Duration
	TailQ   int
	LateMax time.Duration
}

// Summarize computes the latency median and tail over the whole stage
// and the generator's worst lateness.
func Summarize(samples []Sample) StageStats {
	st := StageStats{N: len(samples)}
	lat := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if s.Err {
			st.Errors++
		}
		lat = append(lat, s.Latency())
		st.LateMax = max(st.LateMax, s.Late())
	}
	lat = Sorted(lat)
	st.P50 = Percentile(lat, p50)
	st.TailQ = TailPercentile(len(lat))
	if st.TailQ == 0 {
		st.TailQ = 1000
	}
	st.Tail = Percentile(lat, st.TailQ)
	return st
}
