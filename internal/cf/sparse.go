package cf

import (
	"birch/internal/vec"
)

// This file is the sparse fast path of the closest-entry scan: CSR
// points (vec.Sparse) descend the tree through gather kernels that touch
// only the nonzero coordinates of each slab row, turning the per-
// candidate cost from O(d) into O(nnz) for the dot-product metrics.
//
// Which metrics gather soundly is a bit-identity question, not a
// performance one. The repo's exactness contract demands that a sparse
// insert produce the same tree, bit for bit, as inserting the densified
// point — so a gather kernel may skip a slab coordinate only if the
// skipped term provably leaves the accumulator word unchanged. Under
// IEEE-754 round-to-nearest-even:
//
//   - an accumulator that starts at +0 can never become −0 through
//     additions (x + y is −0 only when both operands are −0), and
//   - adding a ±0 term to it is then the identity, bit for bit.
//
// A dot-product accumulation Σ row[j]·q[j] therefore permits skipping
// every j with q[j] == 0: each skipped term is row[j]·(±0) = ±0. The
// difference-based forms (D0/D1/D4 and the betula D2/D3) do not — their
// per-term (row[j] − q[j])² is nonzero wherever the *candidate* is
// nonzero, and centroids of sparse data are dense. So the gather scans
// exist exactly where the algebra allows:
//
//	DCos, either core:  dot over the x0 slab; norms precomputed
//	                    (cn side slab candidate-side, Bind query-side)
//	D2, classic core:   dot over the ls slab; all other terms are
//	                    per-entry scalars already packed in the slab
//
// Every other (metric, core) pair falls back to the dense fused scan on
// the densified query — bit-identical by construction, just not faster.
// SparseGatherMaxDensity bounds when the gather is actually a win; the
// tree consults it per insert. Each gather scan reads the same slab
// families as the dense scan of its (metric, core) pair, so the blocks
// SlabsFor sizes serve both.

// SparseGatherMaxDensity is the nonzero fraction (nnz/d) above which the
// fused dense slab scan outruns the sparse gather kernel and the tree
// descends densely even for a sparse insert. The gather reads the same
// slab through strided indices — no contiguous prefetch, one extra load
// per term for the index — so its per-term cost is higher and the dense
// scan wins once enough terms survive. Measured by birchbench's sparse
// workloads (make bench-sparse, BENCH_sparse.json): at d ∈ {64, 256,
// 1024} the gather wins by 8–26× at 1% density, 7–10× at 5%, and still
// ~3× at 20%; the density sweeps put the interpolated break-even at
// 0.756 (d=256), 0.762 (d=64) and 0.889 (d=1024). 0.65 is the largest
// swept density the gather wins on every dimension, with ≥ 10% margin —
// past it the win is inside measurement noise, so the tree switches to
// the dense scan there: a constant pinned by measurement, re-derivable
// from the committed report.
const SparseGatherMaxDensity = 0.65

// SparseGatherWins reports whether the sparse gather descent is expected
// to beat the dense fused scan for an nnz-of-d point, per the measured
// crossover.
func SparseGatherWins(nnz, d int) bool {
	return float64(nnz) <= SparseGatherMaxDensity*float64(d)
}

// BindSparse binds c — which must be the singleton CF of the sparse
// point sp — exactly as Bind does, and additionally attaches sp's
// index/value pairs as the query's gather view. The slices are aliased,
// not copied: they remain live until the next Bind/BindSparse, which is
// the single-insertion lifetime the tree gives them. The gather scans
// rely on the singleton identities q.x0 == q.ls == densify(sp) (division
// by N = 1 is exact), so binding a non-singleton CF here would be a
// contract violation; dimension and N are checked, the rest is the
// caller's invariant.
//
//birchlint:hotpath
func (q *Query) BindSparse(c *CF, sp vec.Sparse) {
	if c.N != 1 {
		panic("cf: BindSparse with non-singleton CF")
	}
	if sp.Dim() != len(q.x0) {
		panic("cf: sparse query dimension mismatch")
	}
	q.Bind(c)
	q.spIdx, q.spVal = sp.Idx, sp.Val
}

// Sparse reports whether the query currently carries a gather view.
func (q *Query) Sparse() bool { return q.spIdx != nil }

// SparseScanKernelForCore returns the gather argmin scan for metric m
// under the given backend, or (nil, false) when the metric's algebra
// does not admit a bit-identical gather (see the file comment). The
// returned scan requires a query bound via BindSparse and returns
// exactly what ScanKernelForCore(m, kind) returns on the same block —
// same index, Float64bits-identical distance.
func SparseScanKernelForCore(m Metric, kind CoreKind) (ScanKernel, bool) {
	switch {
	case m == DCos:
		return scanCosSparse, true
	case m == D2 && kind == CoreClassic:
		return scanD2Sparse, true
	}
	return nil, false
}

// scanCosSparse is scanCos with the candidate dot product gathered at
// the query's nonzeros: dot += row[ix]·val[t] visits, in index order, a
// subsequence of the dense loop's terms whose skipped members are all
// row[j]·(±0) — bit-identical by the zero-term argument above. Norms
// come from the cn slab (candidate) and the bound x0Norm (query), so the
// whole candidate cost is O(nnz).
//
//birchlint:hotpath
func scanCosSparse(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	cn := b.cn
	idx := q.spIdx
	val := q.spVal[:len(idx)] // bounds-check elimination hint
	qn := q.x0Norm
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		row := slab[off : off+dim : off+dim]
		var dot float64
		for t, ix := range idx {
			dot += row[ix] * val[t]
		}
		d := cosDistSq(dot, cn[i], qn)
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// scanD2Sparse is scanD2 with the LS dot product gathered at the query's
// nonzeros (q.ls of a singleton is the densified point, so val[t] is
// qls[ix] bit-for-bit). The scalar tail — SS/N, float64(N) slab words,
// the hoisted q.ssOverN and q.n — is untouched, and the clamp matches.
//
//birchlint:hotpath
func scanD2Sparse(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 3
	k := len(b.n)
	slab := b.ls
	idx := q.spIdx
	val := q.spVal[:len(idx)] // bounds-check elimination hint
	best, bestD := 0, 0.0
	for i, off := 0, 0; i < k; i, off = i+1, off+stride {
		row := slab[off : off+dim : off+dim]
		var dot float64
		for t, ix := range idx {
			dot += row[ix] * val[t]
		}
		d := slab[off+dim] + q.ssOverN - 2*dot/(slab[off+dim+2]*q.n)
		if d < 0 {
			d = 0
		}
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// SetPointSparse resets c in place to the singleton CF of the sparse
// point sp — the sparse counterpart of SetPoint, with identical stored
// bits: LS is the densification (memset + O(nnz) scatter, no per-
// component floating-point work), and SS is sp.SqNorm(), which matches
// the dense SqNorm bit-for-bit by the zero-term argument. Under BETULA
// the mean is the densified point and the deviation sum is 0, exactly as
// betulaSetPoint stores. The LS buffer is reused when the dimension
// matches, so the streaming insert path stays allocation-free.
//
//birchlint:hotpath
func (c *CF) SetPointSparse(sp vec.Sparse) {
	d := sp.Dim()
	if len(c.LS) != d {
		c.LS = vec.New(d)
	}
	c.N = 1
	sp.DenseInto(c.LS)
	if c.kind == CoreBETULA {
		c.SS = 0
		return
	}
	c.SS = sp.SqNorm()
}

// FromSparsePoint returns the singleton CF of sp under the given
// backend, bit-identical to CoreFor(kind).FromPoint(densify(sp)).
func FromSparsePoint(sp vec.Sparse, kind CoreKind) CF {
	c := NewCore(sp.Dim(), kind)
	c.SetPointSparse(sp)
	return c
}

// SetPointSparse writes slot i as the singleton CF of the sparse point
// sp — the sparse counterpart of Block.SetPoint, storing exactly the
// words SetPoint(i, densify(sp)) would store in every slab the block
// maintains: the slab rows are memset then scattered (identical bits),
// the SS tail words are sp.SqNorm() (bit-equal to the dense SqNorm), and
// the derived cn word is computed from the written row by the shared
// setNorm helper. O(d) memset plus O(nnz) floating-point work, zero
// allocations.
//
//birchlint:hotpath
func (b *Block) SetPointSparse(i int, sp vec.Sparse) {
	if sp.Dim() != b.dim {
		panic("cf: Block.SetPointSparse dimension mismatch")
	}
	d := b.dim
	if b.slabs&SlabX0 != 0 {
		xoff := i * (d + 1)
		sp.DenseInto(b.x0[xoff : xoff+d : xoff+d])
		b.x0[xoff+d] = 1
	}
	if b.slabs&SlabLS != 0 {
		loff := i * (d + 3)
		sp.DenseInto(b.ls[loff : loff+d : loff+d])
		ss := sp.SqNorm()
		b.ls[loff+d] = ss // SS/N with N = 1
		b.ls[loff+d+1] = ss
		b.ls[loff+d+2] = 1
	}
	if b.slabs&SlabSB != 0 {
		b.sb[2*i] = 0
		b.sb[2*i+1] = 0
	}
	b.n[i] = 1
	if b.slabs&SlabCN != 0 {
		b.setNorm(i)
	}
}

// AppendPointSparse adds a singleton-CF slot for sp at the end of the
// block, the sparse counterpart of AppendPoint. Within the block's
// pre-sized capacity it performs no heap allocation.
//
//birchlint:hotpath
func (b *Block) AppendPointSparse(sp vec.Sparse) {
	b.appendSlot()
	b.SetPointSparse(len(b.n)-1, sp)
}
