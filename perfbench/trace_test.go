package main

import (
	"math"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeOverNestedSpans(t *testing.T) {
	tr := NewTracer(at(0))
	// root [0,100]
	//   a [10,40]
	//     a1 [15,25]
	//     a2 [20,30]   overlaps a1: together they cover 15
	//   b [30,60]      overlaps a: the root is covered over [10,60]
	//     b1 [55,70]   sticks out of b: only [55,60] counts for b
	//   agg: 3 disjoint calls totalling 20 ms inside [60,100]
	root := tr.Add("root", 0, 1, at(0), at(100))
	a := tr.Add("a", root, 1, at(10), at(40))
	a1 := tr.Add("a1", a, 1, at(15), at(25))
	tr.Add("a2", a, 1, at(20), at(30))
	b := tr.Add("b", root, 1, at(30), at(60))
	tr.Add("b1", b, 1, at(55), at(70))
	agg := tr.AddAggregate("agg", root, 1, at(60), at(100), 20*time.Millisecond, 3)

	self := SelfTimes(tr.Spans())
	want := map[int64]time.Duration{
		root: 100 - 50 - 20, // [10,60] plain plus the aggregate's 20
		a:    30 - 15,
		a1:   10,
		b:    30 - 5,
		agg:  20,
	}
	for id, w := range want {
		if got := time.Duration(self[id]); got != w*time.Millisecond {
			t.Errorf("span %d self %v, want %v", id, got, w*time.Millisecond)
		}
	}

	layers := LayerSelf(tr.Spans())
	if layers["a2"] != 10*time.Millisecond || layers["b1"] != 15*time.Millisecond {
		t.Errorf("leaf self times %v", layers)
	}
	if got := UnattributedPct(tr.Spans()); math.Abs(got-30) > 1e-9 {
		t.Errorf("unattributed %v%%, want 30%%", got)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	tr := NewTracer(at(0))
	root := tr.Add("root", 0, 1, at(0), at(10))
	tr.AddAggregate("x", root, 1, at(0), at(10), 8*time.Millisecond, 4)
	tr.Add("y", root, 1, at(0), at(10))
	if got := SelfTimes(tr.Spans())[root]; got != 0 {
		t.Errorf("over-covered root self %v, want 0", got)
	}
}

func TestUnattributedWithTilingChildrenIsZero(t *testing.T) {
	tr := NewTracer(at(0))
	root := tr.Add("request", 0, 1, at(0), at(10))
	tr.Add("loadgen.wait", root, 1, at(0), at(3))
	tr.Add("server", root, 1, at(3), at(10))
	if got := UnattributedPct(tr.Spans()); got != 0 {
		t.Errorf("unattributed %v, want 0", got)
	}
}
