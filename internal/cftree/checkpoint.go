package cftree

// Checkpointing: the CF tree serialized as compact page images. Each
// node is written in preorder as its entry-count plus the raw CF
// component rows — exactly the per-entry layout the scan-slab packing is
// derived from — so loading a checkpoint rebuilds every node through the
// sanctioned appendEntry helper and each cf.Block slab comes back
// bit-identical to recomputation (the Block invariant: slot values are
// pure functions of the entry CFs).
//
// The leaf chain needs its own record. Chain order is insertion-history
// order, not left-to-right tree order, and downstream behaviour consumes
// it (Rebuild re-inserts in chain order, LeafCFs and the threshold
// estimator's closest-pair scan walk it), so a checkpoint that dropped
// the permutation would restore a tree that diverges from the original
// on the very next rebuild. The chain is stored as a permutation of
// preorder leaf indices.
//
// The image is one CRC-32C section of the internal/cf codec: the trailing
// CRC covers the magic and every byte after it, so a torn or bit-flipped
// checkpoint is rejected wholesale rather than half-loaded. Identity
// fields (dim, core, metric, threshold kind) are validated against the
// caller's params so a checkpoint can never be silently reinterpreted
// under different semantics, and the structural counters in the header
// (height, nodes, leaf entries, points) are recomputed from the payload
// and cross-checked as corruption defense beyond the CRC.

import (
	"errors"
	"fmt"
	"io"
	"math"

	"birch/internal/cf"
	"birch/internal/pager"
)

// ckptMagic identifies a CF-tree checkpoint, version 1.
var ckptMagic = [8]byte{'B', 'I', 'R', 'C', 'H', 'C', 'T', '1'}

// ckptMaxCount bounds node entry counts and leaf counts read from disk
// before any allocation trusts them.
const ckptMaxCount = 1 << 24

// ErrCheckpointCorrupt is wrapped by ReadCheckpoint errors caused by a
// damaged (torn, truncated, or bit-flipped) checkpoint image, as opposed
// to a parameter mismatch.
var ErrCheckpointCorrupt = errors.New("cftree: checkpoint corrupt")

// WriteCheckpoint serializes the tree — structure, every CF component
// bit, and the leaf-chain permutation — so ReadCheckpoint under the same
// parameters restores a tree whose future behaviour is bit-identical to
// this one's. w may be a *cf.Writer carrying earlier sections of the
// same record.
func (t *Tree) WriteCheckpoint(w io.Writer) error {
	e := cf.NewWriter(w)
	e.Bytes(ckptMagic[:])
	e.U32(uint32(t.params.Dim))
	e.U8(uint8(t.params.Core))
	e.U8(uint8(t.params.Metric))
	e.U8(uint8(t.params.ThresholdKind))
	e.U8(0) // reserved
	e.F64(t.params.Threshold)
	e.U32(uint32(t.height))
	e.U32(uint32(t.nodes))
	e.U32(uint32(t.leafEntries))
	e.I64(t.points)

	// Preorder node images; record each leaf's preorder index.
	leafIndex := make(map[*Node]int)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			leafIndex[n] = len(leafIndex)
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.U32(uint32(len(n.entries)))
		for i := range n.entries {
			e.Row(&n.entries[i].CF)
		}
		if !n.leaf {
			for i := range n.entries {
				walk(n.entries[i].Child)
			}
		}
	}
	walk(t.root)

	// Leaf chain as a permutation of preorder leaf indices.
	e.U32(uint32(len(leafIndex)))
	for n := t.leafHead; n != nil; n = n.next {
		e.U32(uint32(leafIndex[n]))
	}
	e.Seal()
	if err := e.Flush(); err != nil {
		return fmt.Errorf("cftree: writing checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint reconstructs a tree from a WriteCheckpoint image,
// charging its pages to pgr. params must carry the same identity
// (Dim, Core, Metric, ThresholdKind) the checkpoint was written under;
// params.Threshold is ignored in favour of the checkpointed value. The
// other fields (capacities, merging refinement) are taken from params. r may be a
// *cf.Reader positioned at the image.
func ReadCheckpoint(r io.Reader, params Params, pgr *pager.Pager) (*Tree, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if pgr == nil {
		return nil, errors.New("cftree: nil pager")
	}
	d := cf.NewReader(r)
	corrupt := func(err error) error { return fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err) }

	var magic [8]byte
	d.Bytes(magic[:])
	dim := d.U32()
	kind, metric, tkind := cf.CoreKind(d.U8()), cf.Metric(d.U8()), cf.ThresholdKind(d.U8())
	d.U8() // reserved
	threshold := d.F64()
	hdrHeight, hdrNodes, hdrLeafEntries := d.U32(), d.U32(), d.U32()
	hdrPoints := d.I64()
	if err := d.Err(); err != nil {
		return nil, corrupt(err)
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	if int(dim) != params.Dim {
		return nil, fmt.Errorf("cftree: checkpoint dimension %d, params dimension %d", dim, params.Dim)
	}
	if kind != params.Core {
		return nil, fmt.Errorf("cftree: checkpoint core %v, params core %v — CF components must not be reinterpreted under another backend",
			kind, params.Core)
	}
	if metric != params.Metric {
		return nil, fmt.Errorf("cftree: checkpoint metric %v, params metric %v", metric, params.Metric)
	}
	if tkind != params.ThresholdKind {
		return nil, fmt.Errorf("cftree: checkpoint threshold kind %v, params threshold kind %v", tkind, params.ThresholdKind)
	}
	if math.IsNaN(threshold) || threshold < 0 {
		return nil, fmt.Errorf("%w: implausible threshold %g", ErrCheckpointCorrupt, threshold)
	}
	if hdrHeight == 0 || hdrHeight > 64 || hdrNodes == 0 || hdrNodes > ckptMaxCount ||
		hdrLeafEntries > ckptMaxCount || hdrPoints < 0 {
		return nil, fmt.Errorf("%w: implausible header (height=%d nodes=%d leafEntries=%d points=%d)",
			ErrCheckpointCorrupt, hdrHeight, hdrNodes, hdrLeafEntries, hdrPoints)
	}

	params.Threshold = threshold
	t := &Tree{
		params: params,
		pgr:    pgr,
	}
	t.initKernels()

	var leaves []*Node
	var nodes, leafEntries int
	var points int64
	var readNode func(depth int) (*Node, error)
	readNode = func(depth int) (*Node, error) {
		leafB := d.U8()
		count := d.U32()
		if err := d.Err(); err != nil {
			return nil, corrupt(err)
		}
		isLeaf := leafB == 1
		if !isLeaf && leafB != 0 {
			return nil, fmt.Errorf("%w: bad node kind %d", ErrCheckpointCorrupt, leafB)
		}
		if isLeaf != (depth == int(hdrHeight)) {
			return nil, fmt.Errorf("%w: leaf at depth %d of height-%d tree", ErrCheckpointCorrupt, depth, hdrHeight)
		}
		capacity := params.Branching
		capHint := params.Branching + 1
		if isLeaf {
			capacity = params.LeafCap
			capHint = params.LeafCap + 1
		}
		if int(count) > capacity {
			return nil, fmt.Errorf("%w: node with %d entries exceeds capacity %d (params mismatch?)",
				ErrCheckpointCorrupt, count, capacity)
		}
		if count == 0 && !(isLeaf && depth == 1) {
			// Only the root leaf of an empty tree may have zero entries.
			return nil, fmt.Errorf("%w: empty non-root node", ErrCheckpointCorrupt)
		}
		n := t.newNode(isLeaf, capHint)
		nodes++
		if isLeaf {
			leaves = append(leaves, n)
		}
		for i := 0; i < int(count); i++ {
			entry, err := d.Row(params.Core, params.Dim)
			if err != nil {
				return nil, corrupt(err)
			}
			n.appendEntry(Entry{CF: entry})
			if isLeaf {
				leafEntries++
				points += entry.N
			}
		}
		if !isLeaf {
			for i := 0; i < int(count); i++ {
				child, err := readNode(depth + 1)
				if err != nil {
					return nil, err
				}
				n.setChild(i, child)
			}
		}
		return n, nil
	}
	root, err := readNode(1)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.height = int(hdrHeight)
	t.nodes = nodes
	t.leafEntries = leafEntries
	t.points = points

	// Cross-check the recomputed structural counters against the header.
	if nodes != int(hdrNodes) || leafEntries != int(hdrLeafEntries) || points != hdrPoints {
		return nil, fmt.Errorf("%w: structure mismatch (nodes %d/%d, leaf entries %d/%d, points %d/%d)",
			ErrCheckpointCorrupt, nodes, hdrNodes, leafEntries, hdrLeafEntries, points, hdrPoints)
	}

	// Relink the leaf chain from its stored permutation.
	chainLen := d.U32()
	if err := d.Err(); err != nil {
		return nil, corrupt(err)
	}
	if int(chainLen) != len(leaves) {
		return nil, fmt.Errorf("%w: chain length %d, %d leaves", ErrCheckpointCorrupt, chainLen, len(leaves))
	}
	seen := make([]bool, len(leaves))
	var prev *Node
	for i := 0; i < int(chainLen); i++ {
		idx := d.U32()
		if err := d.Err(); err != nil {
			return nil, corrupt(err)
		}
		if int(idx) >= len(leaves) || seen[idx] {
			return nil, fmt.Errorf("%w: chain index %d invalid or repeated", ErrCheckpointCorrupt, idx)
		}
		seen[idx] = true
		n := leaves[idx]
		if prev == nil {
			t.leafHead = n
		} else {
			prev.next = n
			n.prev = prev
		}
		prev = n
	}
	t.leafTail = prev

	if err := d.Check(); err != nil {
		return nil, corrupt(err)
	}
	return t, nil
}
