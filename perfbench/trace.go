package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Times are nanoseconds from the tracer's
// epoch. An aggregate span stands for Count disjoint calls that fall
// inside [Start, End] and together took Dur; a plain span has Count 1
// and Dur = End − Start.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // request or dataset the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Count  int64  `json:"count"`
}

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose clock reads zero at epoch.
func NewTracer(epoch time.Time) *Tracer { return &Tracer{epoch: epoch} }

func (t *Tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// Add records a plain span and returns its ID.
func (t *Tracer) Add(name string, parent, req int64, start, end time.Time) int64 {
	s, e := t.ns(start), t.ns(end)
	return t.add(Span{Parent: parent, Req: req, Name: name, Start: s, End: e, Dur: e - s, Count: 1})
}

// AddAggregate records count disjoint calls inside [start, end] whose
// durations sum to dur.
func (t *Tracer) AddAggregate(name string, parent, req int64, start, end time.Time, dur time.Duration, count int64) int64 {
	return t.add(Span{Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(end), Dur: int64(dur), Count: count})
}

func (t *Tracer) add(s Span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Plain children cover the
// union of their intervals clipped to the parent; aggregate children
// cover their summed Dur, since their calls are disjoint from each other
// and from the plain children by construction. Coverage never exceeds
// the parent's duration, so self time is never negative.
func SelfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		var plain [][2]int64
		for _, c := range children[s.ID] {
			if c.Count > 1 || c.Dur != c.End-c.Start {
				covered += c.Dur
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				plain = append(plain, [2]int64{lo, hi})
			}
		}
		covered += unionLength(plain)
		self[s.ID] = s.Dur - min(covered, s.Dur)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	total := int64(0)
	var curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// LayerSelf sums self time by span name.
func LayerSelf(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// UnattributedPct is the share of root-span time that no child span
// covers, in percent: the part of the end-to-end time the trace cannot
// assign to any layer.
func UnattributedPct(spans []Span) float64 {
	self := SelfTimes(spans)
	var rootDur, rootSelf int64
	for _, s := range spans {
		if s.Parent == 0 {
			rootDur += s.Dur
			rootSelf += self[s.ID]
		}
	}
	if rootDur == 0 {
		return 0
	}
	return 100 * float64(rootSelf) / float64(rootDur)
}

// WriteTrace writes the envelope, the per-layer self times and every
// span as JSON lines.
func WriteTrace(path string, env Envelope, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	layers := make(map[string]float64)
	for name, d := range LayerSelf(spans) {
		layers[name] = d.Seconds()
	}
	head := map[string]any{"envelope": env, "self_s": layers, "unattributed_pct": UnattributedPct(spans), "spans": len(spans)}
	if err := enc.Encode(head); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
