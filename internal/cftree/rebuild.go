package cftree

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"birch/internal/cf"
)

// Rebuild constructs a new tree with the (typically larger) threshold
// newThreshold by re-inserting every leaf entry of t, in leaf-chain order
// — which is exactly the "path order" of Section 5.1.1 — into the new
// tree. Each old leaf's page is freed as soon as its entries have been
// consumed, and the old interior nodes are freed at the end, so the
// transient page overlap stays O(height), matching the Reducibility
// Theorem's "at most h extra pages" bound.
//
// If isOutlier is non-nil, leaf entries for which it returns true are not
// re-inserted; they are returned to the caller (Phase 1 writes them to the
// outlier disk, Section 5.1.4).
//
// By the Reducibility Theorem, if newThreshold ≥ t's threshold the new
// tree is no larger than the old one. Rebuild leaves t empty and unusable;
// callers must switch to the returned tree.
func (t *Tree) Rebuild(newThreshold float64, isOutlier func(*cf.CF) bool) (*Tree, []cf.CF, error) {
	if newThreshold < 0 {
		return nil, nil, fmt.Errorf("cftree: negative rebuild threshold %g", newThreshold)
	}
	params := t.params
	params.Threshold = newThreshold
	nt, err := New(params, t.pgr)
	if err != nil {
		return nil, nil, err
	}

	var outliers []cf.CF
	for leaf := t.leafHead; leaf != nil; {
		for i := range leaf.entries {
			e := &leaf.entries[i]
			if isOutlier != nil && isOutlier(&e.CF) {
				outliers = append(outliers, e.CF)
				continue
			}
			nt.Insert(e.CF)
		}
		next := leaf.next
		t.freeNode(leaf)
		t.nodes--
		leaf = next
	}
	t.leafHead, t.leafTail = nil, nil

	// Free the interior skeleton of the old tree.
	if !t.root.leaf {
		t.freeInterior(t.root)
	}
	t.root = nil
	t.leafEntries = 0
	t.points = 0
	t.pgr.NoteRebuild()
	return nt, outliers, nil
}

// freeInterior releases all nonleaf nodes of the subtree rooted at n
// (leaves were already freed by the chain walk).
func (t *Tree) freeInterior(n *Node) {
	for i := range n.entries {
		c := n.entries[i].Child
		if c != nil && !c.leaf {
			t.freeInterior(c)
		}
	}
	t.freeNode(n)
	t.nodes--
}

// LeafCFs returns a copy of every leaf entry's CF in chain order. Phase 3
// clusters these directly.
func (t *Tree) LeafCFs() []cf.CF {
	return t.AppendLeafCFs(make([]cf.CF, 0, t.leafEntries))
}

// AppendLeafCFs appends a copy of every leaf entry's CF in chain order to
// dst. The copies are decoded from each leaf's contiguous scan block —
// whose slots store the raw (N, LS, SS) triples verbatim — so snapshot
// builders read one slab per leaf instead of chasing a pointer per entry.
func (t *Tree) AppendLeafCFs(dst []cf.CF) []cf.CF {
	for leaf := t.leafHead; leaf != nil; leaf = leaf.next {
		dst = leaf.blk.AppendCFs(dst)
	}
	return dst
}

// LeafEntryStats summarizes the population of leaf entries. Phase 1's
// outlier rule ("a leaf entry with far fewer data points than the
// average") and its threshold heuristics both consume these numbers.
type LeafEntryStats struct {
	Entries   int     // number of leaf entries
	Points    int64   // total data points across entries
	AvgN      float64 // mean points per entry
	MinN      int64
	MaxN      int64
	AvgRadius float64 // mean entry radius
}

// Stats computes LeafEntryStats over the current tree.
func (t *Tree) Stats() LeafEntryStats {
	var s LeafEntryStats
	first := true
	var radiusSum float64
	for leaf := t.leafHead; leaf != nil; leaf = leaf.next {
		for i := range leaf.entries {
			e := &leaf.entries[i]
			s.Entries++
			s.Points += e.CF.N
			radiusSum += e.CF.Radius()
			if first || e.CF.N < s.MinN {
				s.MinN = e.CF.N
			}
			if first || e.CF.N > s.MaxN {
				s.MaxN = e.CF.N
			}
			first = false
		}
	}
	if s.Entries > 0 {
		s.AvgN = float64(s.Points) / float64(s.Entries)
		s.AvgRadius = radiusSum / float64(s.Entries)
	}
	return s
}

// closestPairChunk is the fixed number of leaves each parallel chunk of
// ClosestLeafPairDistance scans. The grid depends only on the leaf count,
// never on the worker count; a min-reduction over non-NaN distances is
// associative and commutative even in floating point, so the fold order
// cannot change the result anyway — the fixed grid just keeps the scan's
// structure identical to the other deterministic tail loops.
const closestPairChunk = 32

// ClosestLeafPairDistance returns the minimum distance (under the tree's
// metric) between any two leaf entries that share a leaf node, and whether
// such a pair exists. The threshold heuristic of Section 5.1.2 uses this
// D_min: the next threshold should be at least the distance between the
// two closest subclusters, because those are the first that merging at a
// larger threshold would fuse. Restricting the search to co-resident
// entries keeps it cheap and matches the locality argument of the paper
// ("the most crowded leaf").
//
// workers bounds the goroutines scanning leaves; values ≤ 1 run inline.
// The all-pairs scan inside each leaf is independent of every other leaf,
// so leaves fan out whole, each chunk binding its rows into its own
// Query. The result is identical for every worker count.
func (t *Tree) ClosestLeafPairDistance(workers int) (float64, bool) {
	var leaves []*Node
	for leaf := t.leafHead; leaf != nil; leaf = leaf.next {
		leaves = append(leaves, leaf)
	}
	n := len(leaves)
	if n == 0 {
		return 0, false
	}
	chunks := (n + closestPairChunk - 1) / closestPairChunk

	bests := make([]float64, chunks)
	founds := make([]bool, chunks)
	scan := func(c int) {
		lo := c * closestPairChunk
		hi := min(lo+closestPairChunk, n)
		q := cf.NewQuery(t.params.Dim)
		best := 0.0
		found := false
		for _, leaf := range leaves[lo:hi] {
			for i := 0; i < len(leaf.entries)-1; i++ {
				q.Bind(&leaf.entries[i].CF)
				for j := i + 1; j < len(leaf.entries); j++ {
					d := t.kernel(q, &leaf.entries[j].CF)
					if !found || d < best {
						best, found = d, true
					}
				}
			}
		}
		bests[c], founds[c] = best, found
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			scan(c)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c := int(next.Add(1)) - 1
					if c >= chunks {
						return
					}
					scan(c)
				}
			}()
		}
		wg.Wait()
	}

	best := 0.0
	found := false
	for c := 0; c < chunks; c++ {
		if founds[c] && (!found || bests[c] < best) {
			best, found = bests[c], true
		}
	}
	if !found {
		return 0, false
	}
	return math.Sqrt(best), true
}
