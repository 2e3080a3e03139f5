package cftree

import (
	"errors"
	"fmt"

	"birch/internal/cf"
	"birch/internal/pager"
	"birch/internal/vec"
)

// Params fixes the shape and behaviour of a CF tree.
type Params struct {
	// Dim is the data dimensionality d.
	Dim int
	// Branching is B, the nonleaf fan-out. Must be ≥ 2.
	Branching int
	// LeafCap is L, the leaf entry capacity. Must be ≥ 2.
	LeafCap int
	// Threshold is T: every leaf entry must satisfy diameter (or radius,
	// per ThresholdKind) ≤ T. T = 0 means only duplicate points merge.
	Threshold float64
	// ThresholdKind selects diameter (paper default) or radius.
	ThresholdKind cf.ThresholdKind
	// Metric is the D0–D4 distance used to pick the closest child while
	// descending and the closest leaf entry (Table 2 default: D2).
	Metric cf.Metric
	// MergingRefinement enables the split-ameliorating merge step of
	// Section 4.3 (on by default in the paper's algorithm description).
	MergingRefinement bool
	// Core selects the CF statistic backend: the paper's (N, LS, SS)
	// triple (default) or the numerically stable BETULA mean/deviation
	// form. Every entry inserted must carry this kind.
	Core cf.CoreKind
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("cftree: Dim must be positive, got %d", p.Dim)
	}
	if p.Branching < 2 {
		return fmt.Errorf("cftree: Branching must be ≥ 2, got %d", p.Branching)
	}
	if p.LeafCap < 2 {
		return fmt.Errorf("cftree: LeafCap must be ≥ 2, got %d", p.LeafCap)
	}
	if p.Threshold < 0 {
		return fmt.Errorf("cftree: negative Threshold %g", p.Threshold)
	}
	if !p.Metric.Valid() {
		return fmt.Errorf("cftree: invalid metric %v", p.Metric)
	}
	if !p.Core.Valid() {
		return fmt.Errorf("cftree: invalid core kind %v", p.Core)
	}
	return nil
}

// ErrWouldSplit is returned by InsertNoSplit when the entry cannot be
// absorbed and adding it would overflow a node. The delay-split option of
// Section 5.1.4 catches this error and spills the point to disk instead of
// triggering a rebuild.
var ErrWouldSplit = errors.New("cftree: insertion would split a node")

// Tree is a CF tree. It is not safe for concurrent mutation.
type Tree struct {
	params Params
	pgr    *pager.Pager

	root     *Node
	leafHead *Node
	leafTail *Node

	height      int // 1 when the root is a leaf
	nodes       int
	leafEntries int
	points      int64 // total N folded into the tree

	// kernel is the metric-specialized pair distance, resolved once at
	// construction. The split, refinement and D_min paths bind one
	// operand of each row into a Query and call it per pair.
	kernel cf.Kernel
	// scan is the fused argmin kernel that walks a node's scan block in
	// one call: the descent's closest-entry scan.
	scan cf.ScanKernel
	// sscan is the sparse gather argmin scan — O(nnz) per candidate
	// instead of O(d) — resolved when the metric's algebra admits a
	// bit-identical gather (DCos under either core, D2 classic); nil
	// otherwise. InsertSparse descends through it when the point's
	// density is below the measured gather/dense crossover.
	sscan cf.ScanKernel
	// query carries the incoming entry's hoisted constant terms during
	// an insertion's closest-entry scans. Reused across insertions; once
	// the descent is done, the split and refinement paths rebind it to
	// each row of their pair loops.
	query *cf.Query
	// spCF is the scratch singleton CF a sparse insert densifies into,
	// reused so InsertSparse stays allocation-free on the absorb path.
	spCF cf.CF
	// path is the descent-path scratch reused across insertions so the
	// absorb path allocates nothing.
	path []pathStep
}

// initKernels resolves the metric-specialized kernels and per-insert
// scratch for t.params — shared by New and the checkpoint loader.
func (t *Tree) initKernels() {
	p := t.params
	t.kernel = cf.KernelForCore(p.Metric, p.Core)
	t.query = cf.NewQuery(p.Dim)
	t.spCF = cf.NewCore(p.Dim, p.Core)
	t.scan = cf.ScanKernelForCore(p.Metric, p.Core)
	if s, ok := cf.SparseScanKernelForCore(p.Metric, p.Core); ok {
		t.sscan = s
	}
}

// New creates an empty CF tree whose pages are charged to pgr.
func New(params Params, pgr *pager.Pager) (*Tree, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if pgr == nil {
		return nil, errors.New("cftree: nil pager")
	}
	t := &Tree{
		params: params,
		pgr:    pgr,
	}
	t.initKernels()
	t.root = t.newNode(true, params.LeafCap+1)
	t.leafHead, t.leafTail = t.root, t.root
	t.height = 1
	t.nodes = 1
	return t, nil
}

// Params returns the tree's parameters.
func (t *Tree) Params() Params { return t.params }

// Threshold returns the current threshold T.
func (t *Tree) Threshold() float64 { return t.params.Threshold }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// Nodes returns the number of nodes (pages) in the tree.
func (t *Tree) Nodes() int { return t.nodes }

// LeafEntries returns the number of leaf entries (subclusters).
func (t *Tree) LeafEntries() int { return t.leafEntries }

// Points returns the total number of data points summarized by the tree.
func (t *Tree) Points() int64 { return t.points }

// Root exposes the root node for traversal by invariant checks.
func (t *Tree) Root() *Node { return t.root }

// FirstLeaf returns the head of the leaf chain.
func (t *Tree) FirstLeaf() *Node { return t.leafHead }

// Insert adds the subcluster summarized by ent (often a single point's CF)
// to the tree, splitting nodes as needed.
//
//birchlint:hotpath
func (t *Tree) Insert(ent cf.CF) {
	if err := t.insert(ent, true); err != nil {
		// insert with allowSplit=true never fails.
		panic(err)
	}
}

// InsertNoSplit adds ent only if it can be absorbed by an existing leaf
// entry or appended without overflowing any node. Otherwise it returns
// ErrWouldSplit and leaves the tree unchanged.
//
//birchlint:hotpath
func (t *Tree) InsertNoSplit(ent cf.CF) error {
	return t.insert(ent, false)
}

// InsertSparse adds the single sparse point sp to the tree, splitting
// nodes as needed. The resulting tree is bit-identical to
// Insert(FromPoint(densify(sp))): the descent either reuses the dense
// fused scan on the densified scratch CF, or — when the tree's metric
// admits it and the point's density is under the measured crossover —
// the O(nnz)-per-candidate gather scan, which returns the same index and
// Float64bits-identical distances (sparse_test.go's differential battery
// and the cross-path tree test pin this).
//
//birchlint:hotpath
func (t *Tree) InsertSparse(sp vec.Sparse) {
	if err := t.insertSparse(sp, true); err != nil {
		// insertSparse with allowSplit=true never fails.
		panic(err)
	}
}

// InsertSparseNoSplit adds sp only if it can be absorbed or appended
// without overflowing any node, returning ErrWouldSplit otherwise — the
// sparse counterpart of InsertNoSplit for the delay-split spill path.
//
//birchlint:hotpath
func (t *Tree) InsertSparseNoSplit(sp vec.Sparse) error {
	return t.insertSparse(sp, false)
}

// pathStep records the descent through one nonleaf node.
type pathStep struct {
	node *Node
	idx  int // index of the entry whose child we descended into
}

//birchlint:hotpath
func (t *Tree) insert(ent cf.CF, allowSplit bool) error {
	if ent.N == 0 {
		return nil
	}
	if ent.Dim() != t.params.Dim {
		return fmt.Errorf("cftree: entry dimension %d, tree dimension %d",
			ent.Dim(), t.params.Dim)
	}
	if ent.Kind() != t.params.Core {
		return fmt.Errorf("cftree: entry core %v, tree core %v",
			ent.Kind(), t.params.Core)
	}

	// The query constants are bound once here; ent is not mutated until
	// Phase C, after the last scan.
	t.query.Bind(&ent)
	return t.insertBound(ent, allowSplit)
}

// insertSparse densifies sp into the reusable scratch CF, binds the
// query — attaching the gather view when the sparse scan is both
// available and measured to win at this density — and runs the shared
// descent. Every stored bit downstream derives from the densified
// scratch CF, so the sparse and dense insert paths cannot diverge.
//
//birchlint:hotpath
func (t *Tree) insertSparse(sp vec.Sparse, allowSplit bool) error {
	if sp.Dim() != t.params.Dim {
		return fmt.Errorf("cftree: sparse point dimension %d, tree dimension %d",
			sp.Dim(), t.params.Dim)
	}
	t.spCF.SetPointSparse(sp)
	if t.sscan != nil && cf.SparseGatherWins(sp.NNZ(), t.params.Dim) {
		t.query.BindSparse(&t.spCF, sp)
	} else {
		t.query.Bind(&t.spCF)
	}
	return t.insertBound(t.spCF, allowSplit)
}

// insertBound is the descent shared by the dense and sparse insert
// paths; the caller has validated ent and bound t.query to it.
//
//birchlint:hotpath
func (t *Tree) insertBound(ent cf.CF, allowSplit bool) error {
	// Phase A: descend to the leaf along the closest-child path,
	// recording the path so CFs can be updated after the decision.
	path := t.path[:0]
	n := t.root
	for !n.leaf {
		idx, _ := t.closestEntry(n)
		path = append(path, pathStep{n, idx})
		n = n.entries[idx].Child
	}
	t.path = path // retain grown capacity for the next insertion

	// Phase B: decide at the leaf.
	absorbIdx := -1
	if len(n.entries) > 0 {
		idx, _ := t.closestEntry(n)
		if cf.MergedSatisfiesThreshold(&n.entries[idx].CF, &ent,
			t.params.ThresholdKind, t.params.Threshold) {
			absorbIdx = idx
		}
	}
	if absorbIdx < 0 && !allowSplit && len(n.entries) >= t.params.LeafCap {
		return ErrWouldSplit
	}

	// Phase C: apply. Update CFs along the path first — they summarize
	// the whole subtree regardless of how the leaf accommodates ent. Each
	// step refreshes the touched scan-block slot in place.
	for _, st := range path {
		st.node.mergeEntry(st.idx, &ent)
	}
	t.points += ent.N

	if absorbIdx >= 0 {
		n.mergeEntry(absorbIdx, &ent)
		return nil
	}

	// The one sanctioned allocation on the insert path: a brand-new leaf
	// entry must own its LS vector. TestInsertAppendAllocsBounded gates it.
	n.appendEntry(Entry{CF: ent.Clone()}) //birchlint:ignore hotpath new leaf entry owns its vector; append-path gate bounds this
	t.leafEntries++
	if len(n.entries) <= t.params.LeafCap {
		return nil
	}

	// Phase D: split the leaf and propagate upward.
	t.splitAndPropagate(n, path)
	return nil
}

// closestEntry returns the index of the entry of n nearest to the bound
// query under the tree's metric, with its squared distance. n must be
// non-empty and t.query bound. It is one argmin call over the node's
// contiguous scan block: the sparse gather scan for a sparse query the
// gather serves, the four-lane dense scan otherwise. Both return the
// per-entry kernel loop's index and distance bits, keeping the lowest
// index on ties (cf's scan batteries pin the scans to the kernel loop,
// and TestClosestEntryMatchesKernelLoop pins every node of sampled
// descents).
//
//birchlint:hotpath
func (t *Tree) closestEntry(n *Node) (int, float64) {
	if t.sscan != nil && t.query.Sparse() {
		return t.sscan(t.query, n.blk)
	}
	return t.scan(t.query, n.blk)
}

// capacityOf returns the entry capacity of node n.
func (t *Tree) capacityOf(n *Node) int {
	if n.leaf {
		return t.params.LeafCap
	}
	return t.params.Branching
}

// splitAndPropagate splits the overflowing node n (whose descent path is
// given) and pushes splits upward, growing the tree at the root if needed.
// After each completed propagation step the optional merging refinement
// runs on the node where propagation stopped.
//
//birchlint:coldpath
func (t *Tree) splitAndPropagate(n *Node, path []pathStep) {
	for {
		sibling := t.splitNode(n)

		if len(path) == 0 {
			// n was the root: grow a new root above n and sibling.
			newRoot := t.newNode(false, t.params.Branching+1)
			t.nodes++
			newRoot.appendEntry(Entry{CF: n.summaryCF(t.params.Dim), Child: n})
			newRoot.appendEntry(Entry{CF: sibling.summaryCF(t.params.Dim), Child: sibling})
			t.root = newRoot
			t.height++
			return
		}

		parent := path[len(path)-1].node
		idx := path[len(path)-1].idx
		path = path[:len(path)-1]

		// Refresh the CF for the shrunken n in place and add an entry for
		// sibling.
		parent.refreshSummary(idx)
		parent.appendEntry(Entry{CF: sibling.summaryCF(t.params.Dim), Child: sibling})

		if len(parent.entries) <= t.params.Branching {
			// Propagation stops here; optionally run merging refinement
			// between the split pair's entries and the closest pair in
			// the parent (Section 4.3).
			if t.params.MergingRefinement {
				t.mergingRefinement(parent, idx, len(parent.entries)-1)
			}
			return
		}
		n = parent
	}
}
