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
// Every byte after the magic is covered by a trailing CRC-32C; a torn or
// bit-flipped checkpoint is rejected wholesale rather than half-loaded.
// Identity fields (dim, core, metric, threshold kind) are validated
// against the caller's params so a checkpoint can never be silently
// reinterpreted under different semantics, and the structural counters
// in the header (height, nodes, leaf entries, points) are recomputed
// from the payload and cross-checked as corruption defense beyond the
// CRC.

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"birch/internal/cf"
	"birch/internal/pager"
	"birch/internal/vec"
)

// ckptMagic identifies a CF-tree checkpoint, version 1.
var ckptMagic = [8]byte{'B', 'I', 'R', 'C', 'H', 'C', 'T', '1'}

var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ckptMaxCount bounds node entry counts and leaf counts read from disk
// before any allocation trusts them.
const ckptMaxCount = 1 << 24

// ErrCheckpointCorrupt is wrapped by ReadCheckpoint errors caused by a
// damaged (torn, truncated, or bit-flipped) checkpoint image, as opposed
// to a parameter mismatch.
var ErrCheckpointCorrupt = errors.New("cftree: checkpoint corrupt")

// ckptWriter accumulates little-endian fields and a running CRC.
type ckptWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
	buf [8]byte
}

func (e *ckptWriter) bytes(p []byte) {
	if e.err != nil {
		return
	}
	e.crc = crc32.Update(e.crc, ckptCRCTable, p)
	_, e.err = e.w.Write(p)
}

func (e *ckptWriter) u8(v uint8) {
	e.buf[0] = v
	e.bytes(e.buf[:1])
}

func (e *ckptWriter) u32(v uint32) {
	e.buf[0], e.buf[1], e.buf[2], e.buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	e.bytes(e.buf[:4])
}

func (e *ckptWriter) u64(v uint64) {
	for i := 0; i < 8; i++ {
		e.buf[i] = byte(v >> (8 * i))
	}
	e.bytes(e.buf[:8])
}

func (e *ckptWriter) i64(v int64)   { e.u64(uint64(v)) }
func (e *ckptWriter) f64(v float64) { e.u64(math.Float64bits(v)) }

// ckptReader mirrors ckptWriter.
type ckptReader struct {
	r   io.Reader
	crc uint32
	buf [8]byte
}

func (d *ckptReader) bytes(p []byte) error {
	if _, err := io.ReadFull(d.r, p); err != nil {
		return fmt.Errorf("%w: short read: %v", ErrCheckpointCorrupt, err)
	}
	d.crc = crc32.Update(d.crc, ckptCRCTable, p)
	return nil
}

func (d *ckptReader) u8() (uint8, error) {
	if err := d.bytes(d.buf[:1]); err != nil {
		return 0, err
	}
	return d.buf[0], nil
}

func (d *ckptReader) u32() (uint32, error) {
	if err := d.bytes(d.buf[:4]); err != nil {
		return 0, err
	}
	b := d.buf
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

func (d *ckptReader) u64() (uint64, error) {
	if err := d.bytes(d.buf[:8]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(d.buf[i]) << (8 * i)
	}
	return v, nil
}

func (d *ckptReader) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

func (d *ckptReader) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

// WriteCheckpoint serializes the tree — structure, every CF component
// bit, and the leaf-chain permutation — so ReadCheckpoint under the same
// parameters restores a tree whose future behaviour is bit-identical to
// this one's.
func (t *Tree) WriteCheckpoint(w io.Writer) error {
	e := &ckptWriter{w: bufio.NewWriter(w)}
	e.bytes(ckptMagic[:])
	e.u32(uint32(t.params.Dim))
	e.u8(uint8(t.params.Core))
	e.u8(uint8(t.params.Metric))
	e.u8(uint8(t.params.ThresholdKind))
	e.u8(0) // reserved
	e.f64(t.params.Threshold)
	e.u32(uint32(t.height))
	e.u32(uint32(t.nodes))
	e.u32(uint32(t.leafEntries))
	e.i64(t.points)

	// Preorder node images; record each leaf's preorder index.
	leafIndex := make(map[*Node]int)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			leafIndex[n] = len(leafIndex)
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u32(uint32(len(n.entries)))
		for i := range n.entries {
			c := &n.entries[i].CF
			e.i64(c.N)
			e.f64(c.SS)
			for _, v := range c.LS {
				e.f64(v)
			}
		}
		if !n.leaf {
			for i := range n.entries {
				walk(n.entries[i].Child)
			}
		}
	}
	walk(t.root)

	// Leaf chain as a permutation of preorder leaf indices.
	e.u32(uint32(len(leafIndex)))
	for n := t.leafHead; n != nil; n = n.next {
		e.u32(uint32(leafIndex[n]))
	}

	// Trailer: CRC over everything above (not itself).
	crc := e.crc
	e.u32(crc)
	if e.err != nil {
		return fmt.Errorf("cftree: writing checkpoint: %w", e.err)
	}
	return e.w.Flush()
}

// ReadCheckpoint reconstructs a tree from a WriteCheckpoint image,
// charging its pages to pgr. params must carry the same identity
// (Dim, Core, Metric, ThresholdKind) the checkpoint was written under;
// params.Threshold is ignored in favour of the checkpointed value. The
// perf-only knobs (Scan, capacities) are taken from params.
func ReadCheckpoint(r io.Reader, params Params, pgr *pager.Pager) (*Tree, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if pgr == nil {
		return nil, errors.New("cftree: nil pager")
	}
	d := &ckptReader{r: bufio.NewReader(r)}

	var magic [8]byte
	if err := d.bytes(magic[:]); err != nil {
		return nil, err
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	dim, err := d.u32()
	if err != nil {
		return nil, err
	}
	if int(dim) != params.Dim {
		return nil, fmt.Errorf("cftree: checkpoint dimension %d, params dimension %d", dim, params.Dim)
	}
	kindB, err := d.u8()
	if err != nil {
		return nil, err
	}
	if cf.CoreKind(kindB) != params.Core {
		return nil, fmt.Errorf("cftree: checkpoint core %v, params core %v — CF components must not be reinterpreted under another backend",
			cf.CoreKind(kindB), params.Core)
	}
	metricB, err := d.u8()
	if err != nil {
		return nil, err
	}
	if cf.Metric(metricB) != params.Metric {
		return nil, fmt.Errorf("cftree: checkpoint metric %v, params metric %v", cf.Metric(metricB), params.Metric)
	}
	tkindB, err := d.u8()
	if err != nil {
		return nil, err
	}
	if cf.ThresholdKind(tkindB) != params.ThresholdKind {
		return nil, fmt.Errorf("cftree: checkpoint threshold kind %v, params threshold kind %v",
			cf.ThresholdKind(tkindB), params.ThresholdKind)
	}
	if _, err := d.u8(); err != nil { // reserved
		return nil, err
	}
	threshold, err := d.f64()
	if err != nil {
		return nil, err
	}
	if math.IsNaN(threshold) || threshold < 0 {
		return nil, fmt.Errorf("%w: implausible threshold %g", ErrCheckpointCorrupt, threshold)
	}
	hdrHeight, err := d.u32()
	if err != nil {
		return nil, err
	}
	hdrNodes, err := d.u32()
	if err != nil {
		return nil, err
	}
	hdrLeafEntries, err := d.u32()
	if err != nil {
		return nil, err
	}
	hdrPoints, err := d.i64()
	if err != nil {
		return nil, err
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

	backend := cf.CoreFor(params.Core)
	var leaves []*Node
	var nodes, leafEntries int
	var points int64
	var readNode func(depth int) (*Node, error)
	readNode = func(depth int) (*Node, error) {
		leafB, err := d.u8()
		if err != nil {
			return nil, err
		}
		isLeaf := leafB == 1
		if !isLeaf && leafB != 0 {
			return nil, fmt.Errorf("%w: bad node kind %d", ErrCheckpointCorrupt, leafB)
		}
		if isLeaf != (depth == int(hdrHeight)) {
			return nil, fmt.Errorf("%w: leaf at depth %d of height-%d tree", ErrCheckpointCorrupt, depth, hdrHeight)
		}
		count, err := d.u32()
		if err != nil {
			return nil, err
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
			cn, err := d.i64()
			if err != nil {
				return nil, err
			}
			ss, err := d.f64()
			if err != nil {
				return nil, err
			}
			ls := vec.New(params.Dim)
			for j := range ls {
				if ls[j], err = d.f64(); err != nil {
					return nil, err
				}
			}
			entry, err := backend.FromComponents(cn, ls, ss)
			if err != nil {
				return nil, fmt.Errorf("%w: invalid CF components: %v", ErrCheckpointCorrupt, err)
			}
			n.appendEntry(Entry{CF: entry})
			if isLeaf {
				leafEntries++
				points += cn
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
	chainLen, err := d.u32()
	if err != nil {
		return nil, err
	}
	if int(chainLen) != len(leaves) {
		return nil, fmt.Errorf("%w: chain length %d, %d leaves", ErrCheckpointCorrupt, chainLen, len(leaves))
	}
	seen := make([]bool, len(leaves))
	var prev *Node
	for i := 0; i < int(chainLen); i++ {
		idx, err := d.u32()
		if err != nil {
			return nil, err
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

	// Trailer CRC: compare against the running sum before consuming it.
	sum := d.crc
	stored, err := d.u32()
	if err != nil {
		return nil, err
	}
	if stored != sum {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCheckpointCorrupt, stored, sum)
	}
	return t, nil
}
