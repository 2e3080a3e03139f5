package cftree

// splitNode splits the overflowing node n in place: it chooses the
// farthest pair of entries as seeds (Section 4.3, "Node splitting is done
// by choosing the farthest pair of entries as seeds, and redistributing
// the remaining entries based on the closest criteria"), keeps the first
// seed's group in n, and returns a freshly allocated sibling holding the
// second seed's group. Leaf siblings are linked into the leaf chain right
// after n.
func (t *Tree) splitNode(n *Node) *Node {
	sibling := t.newNode(n.leaf, t.capacityOf(n)+1)
	t.nodes++
	if n.leaf {
		t.linkAfter(n, sibling)
	}
	old := n.takeEntries(t.capacityOf(n) + 1)
	t.redistribute(old, n, sibling)
	return sibling
}

// redistribute splits the given entries between nodes a and b: the
// farthest pair under the tree's metric seed the two nodes, and every
// other entry joins the seed it is closer to, subject to neither node
// exceeding its capacity. Each entry is bound once as the query and the
// kernel is applied to both seeds; every metric is bitwise symmetric in
// its operands, so these are the entry-to-seed distances exactly.
func (t *Tree) redistribute(entries []Entry, a, b *Node) {
	if len(entries) < 2 {
		panic("cftree: redistribute needs at least 2 entries")
	}
	seedA, seedB := t.farthestPair(entries)
	capacity := t.capacityOf(a)

	a.resetEntries()
	b.resetEntries()
	a.appendEntry(entries[seedA])
	b.appendEntry(entries[seedB])
	// Stable: a and b are pre-sized past capacity, so the appends below
	// never reallocate the entry slices out from under these pointers.
	cfA := &a.entries[0].CF
	cfB := &b.entries[0].CF

	for i := range entries {
		if i == seedA || i == seedB {
			continue
		}
		t.query.Bind(&entries[i].CF)
		dA := t.kernel(t.query, cfA)
		dB := t.kernel(t.query, cfB)
		toA := dA <= dB
		if toA && len(a.entries) >= capacity {
			toA = false
		} else if !toA && len(b.entries) >= capacity {
			toA = true
		}
		if toA {
			a.appendEntry(entries[i])
		} else {
			b.appendEntry(entries[i])
		}
	}
}

// farthestPair returns the indices of the two entries at maximum pairwise
// distance under the tree's metric, binding each row's entry once.
func (t *Tree) farthestPair(entries []Entry) (int, int) {
	bi, bj, bd := 0, 1, -1.0
	for i := 0; i < len(entries)-1; i++ {
		t.query.Bind(&entries[i].CF)
		for j := i + 1; j < len(entries); j++ {
			d := t.kernel(t.query, &entries[j].CF)
			if d > bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	return bi, bj
}

// mergingRefinement implements the split-amelioration step of Section 4.3:
// in the nonleaf node where split propagation stopped, find the two
// closest entries; if they are not the pair that just resulted from the
// split, merge their children. If the merged entries fit in a single node,
// one node is freed; otherwise the union is split again (with the farthest
// pair as seeds), which tends to give both resulting nodes better
// utilization and geometry than the skew the original split left behind.
//
// splitIdxA and splitIdxB are the parent-entry indices of the pair
// produced by the split.
//
//birchlint:coldpath
func (t *Tree) mergingRefinement(parent *Node, splitIdxA, splitIdxB int) {
	if len(parent.entries) < 2 {
		return
	}
	ci, cj := t.closestPair(parent.entries)
	if (ci == splitIdxA && cj == splitIdxB) || (ci == splitIdxB && cj == splitIdxA) {
		return
	}

	childI := parent.entries[ci].Child
	childJ := parent.entries[cj].Child
	combined := make([]Entry, 0, len(childI.entries)+len(childJ.entries))
	combined = append(combined, childI.entries...)
	combined = append(combined, childJ.entries...)

	if len(combined) <= t.capacityOf(childI) {
		// Merge into childI, free childJ.
		childI.resetEntries()
		for _, e := range combined {
			childI.appendEntry(e)
		}
		if childJ.leaf {
			t.unlink(childJ)
		}
		t.freeNode(childJ)
		t.nodes--
		parent.refreshSummary(ci)
		parent.removeEntry(cj)
		return
	}

	// Resplit the union across the two existing children; seeds are the
	// farthest pair, so both nodes end up better packed.
	t.redistribute(combined, childI, childJ)
	parent.refreshSummary(ci)
	parent.refreshSummary(cj)
}

// closestPair returns the indices (i < j) of the two closest entries under
// the tree's metric, binding each row's entry once. The first pair seeds
// the minimum and later pairs replace it only when strictly closer.
func (t *Tree) closestPair(entries []Entry) (int, int) {
	bi, bj := 0, 1
	var bd float64
	for i := 0; i < len(entries)-1; i++ {
		t.query.Bind(&entries[i].CF)
		for j := i + 1; j < len(entries); j++ {
			d := t.kernel(t.query, &entries[j].CF)
			if (i == 0 && j == 1) || d < bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	return bi, bj
}
