// Package cftree implements the CF tree of Section 4.2: a height-balanced
// tree, patterned after a B+-tree, whose nonleaf nodes hold up to B
// [CF, child] entries and whose leaf nodes hold up to L CF entries, each
// leaf entry summarizing a subcluster whose diameter (or radius) satisfies
// the threshold T. Leaves are chained with prev/next pointers for cheap
// scans.
//
// The package provides insertion with the absorb-or-split rule and the
// optional merging refinement (Section 4.3), and tree rebuilding with a
// larger threshold per the Reducibility Theorem (Section 5.1.1), walking
// old leaves in path order and freeing their pages as it goes so the
// rebuild needs only O(height) transient pages.
//
// The package carries the deterministic lint contract (DESIGN.md §12):
// inserting the same entry sequence into the same parameters produces a
// bit-identical tree.
//
//birchlint:deterministic
package cftree

import (
	"fmt"

	"birch/internal/cf"
)

// Entry is one slot of a node: a CF summary plus, for nonleaf nodes, the
// child whose subtree it summarizes. Leaf entries have a nil Child and
// represent a subcluster directly.
type Entry struct {
	CF    cf.CF
	Child *Node
}

// Node is one page of the CF tree.
type Node struct {
	leaf    bool
	entries []Entry
	// blk is the node's scan block: the contiguous slab of candidate-side
	// hoisted terms the fused argmin descent kernel walks instead of the
	// entries themselves. Slot i always mirrors entries[i].CF bit-exactly;
	// the mutation helpers below are the only code allowed to change
	// entries, and each one refreshes the slots it touches (the blocksync
	// lint pass enforces that no other file in this package mutates
	// entries directly).
	blk *cf.Block
	// prev/next implement the leaf chain; nil for nonleaf nodes and at the
	// chain ends.
	prev, next *Node
}

// IsLeaf reports whether n is a leaf node.
func (n *Node) IsLeaf() bool { return n.leaf }

// Len returns the number of entries currently in the node.
func (n *Node) Len() int { return len(n.entries) }

// Entries exposes the node's entries for read-only traversal (invariant
// checks, statistics). Callers must not mutate them.
func (n *Node) Entries() []Entry { return n.entries }

// Next returns the next leaf in the chain (nil at the end or on nonleaf
// nodes).
func (n *Node) Next() *Node { return n.next }

// mergeEntry folds ent into entry i's CF and refreshes its scan-block
// slot — the absorb step and the descent-path CF update. Both the merge
// and the slot refresh write in place, so this allocates nothing.
//
//birchlint:hotpath
func (n *Node) mergeEntry(i int, ent *cf.CF) {
	n.entries[i].CF.Merge(ent)
	n.blk.Set(i, &n.entries[i].CF)
}

// appendEntry adds e as the node's last entry and appends its scan-block
// slot. The entry slice and block are pre-sized one past capacity at node
// allocation, so appends up to a split never reallocate.
//
//birchlint:hotpath
func (n *Node) appendEntry(e Entry) {
	n.entries = append(n.entries, e)
	n.blk.Append(&n.entries[len(n.entries)-1].CF)
}

// removeEntry deletes entry i, preserving order, and shifts the block
// slots to match.
func (n *Node) removeEntry(i int) {
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.blk.Remove(i)
}

// resetEntries empties the node (capacity retained) ahead of a
// redistribution refill.
func (n *Node) resetEntries() {
	n.entries = n.entries[:0]
	n.blk.Truncate(0)
}

// takeEntries detaches and returns the node's entries, leaving the node
// empty with a fresh backing array of the given capacity. Split paths use
// it so the returned slice can feed redistribution while the node is
// refilled through appendEntry.
func (n *Node) takeEntries(capHint int) []Entry {
	old := n.entries
	n.entries = make([]Entry, 0, capHint)
	n.blk.Truncate(0)
	return old
}

// setChild attaches c as entry i's child without touching the entry's
// CF, so no scan-block slot changes. Checkpoint loading uses it: entries
// are appended CF-first (rebuilding each block slot bit-exactly through
// appendEntry) and the subtree below each entry is attached after it has
// been read.
func (n *Node) setChild(i int, c *Node) {
	n.entries[i].Child = c
}

// refreshSummary recomputes entry i's CF as the summary of its child (in
// place, via SummaryInto) and syncs the scan-block slot. Split
// propagation uses it after a child's entries were redistributed.
func (n *Node) refreshSummary(i int) {
	n.entries[i].Child.SummaryInto(&n.entries[i].CF)
	n.blk.Set(i, &n.entries[i].CF)
}

// SummaryInto writes the sum of all entry CFs in n — the CF the parent
// entry pointing at n must carry — into dst, reusing dst's buffer. It is
// the allocation-free counterpart of summaryCF for callers that already
// own a destination CF (split propagation, invariant checks).
func (n *Node) SummaryInto(dst *cf.CF) {
	dst.Reset()
	for i := range n.entries {
		dst.Merge(&n.entries[i].CF)
	}
}

// checkBlockSync verifies that the node's scan block mirrors its entries
// bit-for-bit: same length, and every slot identical (under Float64bits)
// to recomputation from the entry's CF. Invariant checks and the
// differential fuzzer call this; hot paths never do.
func (n *Node) checkBlockSync() error {
	if n.blk == nil {
		return fmt.Errorf("nil scan block (%d entries)", len(n.entries))
	}
	if n.blk.Len() != len(n.entries) {
		return fmt.Errorf("scan block has %d slots, node has %d entries",
			n.blk.Len(), len(n.entries))
	}
	for i := range n.entries {
		if err := n.blk.CheckSync(i, &n.entries[i].CF); err != nil {
			return err
		}
	}
	return nil
}

// summaryCF returns the sum of all entry CFs in n as a fresh CF. Paths
// that must materialize a new CF anyway (growing a new root, the parent
// entry of a fresh sibling) use this; everything else prefers
// SummaryInto. The fresh CF adopts the entries' core kind on the first
// Merge, so this works unchanged under either backend.
func (n *Node) summaryCF(dim int) cf.CF {
	s := cf.New(dim)
	n.SummaryInto(&s)
	return s
}

// newNode allocates a node (one page) of the given kind, charging the
// tree's pager. The entry slice and scan block are pre-sized to capHint
// so the node can overflow by one entry (the split trigger) without
// reallocating.
func (t *Tree) newNode(leaf bool, capHint int) *Node {
	t.pgr.AllocPage()
	return &Node{
		leaf:    leaf,
		entries: make([]Entry, 0, capHint),
		blk:     cf.NewBlockOpts(t.params.Dim, capHint, t.params.Metric, t.params.Core),
	}
}

// freeNode releases a node's page. For leaves the caller is responsible
// for unlinking the chain first.
func (t *Tree) freeNode(n *Node) {
	t.pgr.FreePage()
	n.entries = nil
	n.blk = nil
	n.prev, n.next = nil, nil
}

// linkAfter inserts leaf m into the chain immediately after leaf n, and
// fixes the tree's tail pointer.
func (t *Tree) linkAfter(n, m *Node) {
	m.prev = n
	m.next = n.next
	if n.next != nil {
		n.next.prev = m
	} else {
		t.leafTail = m
	}
	n.next = m
}

// unlink removes leaf n from the chain, fixing head/tail pointers.
func (t *Tree) unlink(n *Node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.leafHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.leafTail = n.prev
	}
	n.prev, n.next = nil, nil
}
