package vec

import "math"

// LookAheadGroup is G, the number of points a data scan loads ahead as
// one group (see LoadAhead). On the 1M-point d = 16 batch workload every
// G from 4 to 32 removed most of the first-read stall, within run-to-run
// noise of each other (DESIGN.md §10); 16 is the middle of that range.
const LookAheadGroup = 16

// LoadAhead reads the first and last component of every non-empty point
// in group and returns their bits folded together. A data scan calls it
// on the next group of points before it works through the current one:
// the group's cache misses then overlap each other and the current
// group's work, instead of each point's first read stalling its own
// insert or assignment. That matters for inputs larger than the caches
// read in an order the hardware prefetcher cannot follow, such as a
// shuffled [][]float64 whose rows are scattered over the heap. The two
// reads cover both ends of a row that straddles a cache-line boundary.
//
// The caller must keep the returned value live (store it where the
// compiler cannot prove it dead), or the loads may be dropped. Empty
// points are skipped, so a malformed point reaches the scan's own
// dimension check unchanged. LoadAhead never writes.
//
//birchlint:hotpath
func LoadAhead(group []Vector) uint64 {
	var x uint64
	for _, p := range group {
		if len(p) > 0 {
			x ^= math.Float64bits(p[0]) ^ math.Float64bits(p[len(p)-1])
		}
	}
	return x
}
