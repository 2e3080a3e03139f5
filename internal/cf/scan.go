package cf

import (
	"math"

	"birch/internal/vec"
)

// This file provides the fused argmin scan kernels: the second stage of
// the closest-entry-scan specialization. Kernel (kernel.go) removed the
// per-pair metric switch and the query-side recomputation; what remained
// was one indirect call per candidate plus a pointer chase to each
// entry's separately allocated LS vector. A ScanKernel walks a node's
// contiguous Block instead — the whole candidate loop is one function, so
// there are zero indirect calls per candidate, and each metric streams
// exactly one packed slab (x0 for D0/D1/D4, ls for D2/D3) so every byte
// pulled through the cache is a byte the metric reads. scanFor pairs each
// scan with the slab families it reads, and blocks maintain no others
// (SlabsFor).
//
// Candidate lanes. A one-accumulator loop makes every floating-point add
// wait for the one before it, so a scan over short rows is bound by add
// latency rather than by loads or arithmetic. The scans therefore step
// four candidates at a time, each with its own accumulator (then two,
// then one for the K mod 4 remainder): the four add chains are
// independent, so they overlap in the pipeline. The lane helpers at the
// bottom of this file are the four metric families' inner loops — the
// squared difference, the absolute difference, the dot product and the
// squared sum — at widths four, two and one.
//
// Exactness contract: for every metric m, non-empty query q and Block blk
// whose slots are in sync with entries e_0..e_k (Block.CheckSync),
//
//	ScanKernelForCore(m, kind)(qry bound to q, blk)
//
// returns exactly the (index, distance) the per-entry loop
//
//	best, bestD := 0, KernelForCore(m, kind)(qry, &e_0)
//	for i := 1..k { if d := KernelForCore(m, kind)(qry, &e_i); d < bestD { ... } }
//
// would produce — bit-for-bit distances, ties keeping the lowest index.
// Lanes reorder nothing that is rounded: each candidate is still summed
// into its own accumulator in component order, with the kernel's
// expression and clamp, so its distance keeps its bits; and the
// distances are compared in candidate order under the same
// `i == 0 || d < bestD` update (pick), so ties and non-finite distances
// resolve exactly as in the one-at-a-time loop. The scan bodies perform
// the same floating-point operations in the same order as the kernels
// (and therefore as the DistanceSq oracle); the only hoisted values are
// whole subexpressions (LS[j]/N, SS/N, float64(N)) stored in the block by
// the very operations the kernels would perform, so no reassociation
// occurs anywhere. The single-accumulator bodies these kernels replaced
// are kept in scan_ref_test.go; scan_test.go and FuzzScanLanes check the
// lanes against them and against the kernel loop with Float64bits
// comparisons, for every (metric, core) pair, every K mod 4, planted ties
// at each lane position and non-finite distances.

// ScanKernel returns the index of the block slot closest to the query
// bound into q, together with its squared metric distance. The block must
// be non-empty and slot-synced with the entries it summarizes.
type ScanKernel func(q *Query, b *Block) (idx int, d float64)

// ScanKernelForCore returns the fused argmin scan for metric m under the
// given CF-core backend. Blocks handed to the returned scan must carry
// the same kind and at least the slab families SlabsFor(m, kind) names
// (NewBlockOpts builds exactly those).
func ScanKernelForCore(m Metric, kind CoreKind) ScanKernel {
	scan, _ := scanFor(m, kind)
	return scan
}

// scanFor is the one table of the fused scans: the argmin scan for
// metric m under backend kind, and the slab families it reads. The x0
// slab stores centroids under both backends, so D0/D1/D4 and DCos share
// one implementation each; the betula D2/D3 scans stream the x0 slab plus
// the two-word sb side slab instead of the classic ls slab, mirroring
// kernelD2b/kernelD3b bit-for-bit. SlabsFor derives a block's slab set
// from the second result, so a scan and the blocks it walks cannot
// disagree.
func scanFor(m Metric, kind CoreKind) (ScanKernel, Slabs) {
	switch m {
	case D0:
		return scanD0, SlabX0
	case D1:
		return scanD1, SlabX0
	case D4:
		return scanD4, SlabX0
	case DCos:
		return scanCos, SlabX0 | SlabCN
	case D2:
		if kind == CoreBETULA {
			return scanD2b, SlabX0 | SlabSB
		}
		return scanD2, SlabLS
	case D3:
		if kind == CoreBETULA {
			return scanD3b, SlabX0 | SlabSB
		}
		return scanD3, SlabLS
	}
	panic("cf: invalid metric " + m.String())
}

// pick is the reference loop's update for candidate i with distance d:
// the first candidate always seeds the minimum, later ones replace it
// only when strictly smaller — so ties keep the lowest index, and a NaN
// never wins (nor, once seeded, loses).
//
//birchlint:hotpath
func pick(best int, bestD float64, i int, d float64) (int, float64) {
	if i == 0 || d < bestD {
		return i, d
	}
	return best, bestD
}

// ScanNearestX0 is the fused flat-scan serving kernel: the argmin over
// the block's x0 slab of the plain squared Euclidean distance ‖q − X0ᵢ‖²,
// returning the winning slot index and that squared distance.
//
// Unlike scanD0 it performs no sqrt-then-square round trip, because its
// reference loop is not kernelD0 but the flat nearest-centroid
// brute loop over vec.SqDist that Phase 4 assignment, Lloyd iteration
// and Result.Classify all minimize (kmeans.Finder's certified search
// falls back to this scan). The agreement is
// bit-for-bit: each slot's term (v − q[j])² equals the brute loop's
// (q[j] − v)² exactly (IEEE negation is exact), sums accumulate in the
// same component order, and ties keep the lowest index just as a strict
// `<` scan from slot 0 does. flatscan_test.go property-checks this with
// Float64bits comparisons.
//
// The block must be non-empty and maintain the x0 slab: flat centroid
// blocks (NewCentroidBlock) pack one point per slot via
// SetPoint/AppendPoint, and any slot-synced block whose slab set holds
// x0 works too.
//
//birchlint:hotpath
func ScanNearestX0(q vec.Vector, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	qx := q[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		s0, s1, s2, s3 := sqDiff4(r0, r1, r2, r3, qx)
		best, bestD = pick(best, bestD, i, s0)
		best, bestD = pick(best, bestD, i+1, s1)
		best, bestD = pick(best, bestD, i+2, s2)
		best, bestD = pick(best, bestD, i+3, s3)
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		s0, s1 := sqDiff2(r0, r1, qx)
		best, bestD = pick(best, bestD, i, s0)
		best, bestD = pick(best, bestD, i+1, s1)
		i, off = i+2, off+2*stride
	}
	if i < k {
		best, bestD = pick(best, bestD, i, sqDiff1(slab[off:off+dim:off+dim], qx))
	}
	return best, bestD
}

// scanD0 fuses kernelD0 over the block: squared Euclidean centroid
// distance, candidate centroids streamed straight from the x0 slab.
//
//birchlint:hotpath
func scanD0(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		s0, s1, s2, s3 := sqDiff4(r0, r1, r2, r3, qx)
		best, bestD = pick(best, bestD, i, d0Of(s0))
		best, bestD = pick(best, bestD, i+1, d0Of(s1))
		best, bestD = pick(best, bestD, i+2, d0Of(s2))
		best, bestD = pick(best, bestD, i+3, d0Of(s3))
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		s0, s1 := sqDiff2(r0, r1, qx)
		best, bestD = pick(best, bestD, i, d0Of(s0))
		best, bestD = pick(best, bestD, i+1, d0Of(s1))
		i, off = i+2, off+2*stride
	}
	if i < k {
		best, bestD = pick(best, bestD, i, d0Of(sqDiff1(slab[off:off+dim:off+dim], qx)))
	}
	return best, bestD
}

// d0Of is kernelD0's tail: the sqrt-then-square round trip of the
// generic path, which dropping would change low bits.
//
//birchlint:hotpath
func d0Of(s float64) float64 {
	d := math.Sqrt(s)
	return d * d
}

// scanD1 fuses kernelD1: squared Manhattan centroid distance.
//
//birchlint:hotpath
func scanD1(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		s0, s1, s2, s3 := absDiff4(r0, r1, r2, r3, qx)
		best, bestD = pick(best, bestD, i, s0*s0)
		best, bestD = pick(best, bestD, i+1, s1*s1)
		best, bestD = pick(best, bestD, i+2, s2*s2)
		best, bestD = pick(best, bestD, i+3, s3*s3)
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		s0, s1 := absDiff2(r0, r1, qx)
		best, bestD = pick(best, bestD, i, s0*s0)
		best, bestD = pick(best, bestD, i+1, s1*s1)
		i, off = i+2, off+2*stride
	}
	if i < k {
		s := absDiff1(slab[off:off+dim:off+dim], qx)
		best, bestD = pick(best, bestD, i, s*s)
	}
	return best, bestD
}

// scanD2 fuses kernelD2: SS1/N1 + SS2/N2 − 2·(LS1·LS2)/(N1·N2), one
// linear pass over the ls slab — raw LS for the dot product, then the
// packed SS/N and float64(N) tail words. Clamped to 0 exactly as the
// kernel is.
//
//birchlint:hotpath
func scanD2(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 3
	k := len(b.n)
	slab := b.ls
	qls := q.ls[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		t0, t1, t2, t3 := dot4(r0, r1, r2, r3, qls)
		best, bestD = pick(best, bestD, i, q.d2Of(slab, off+dim, t0))
		best, bestD = pick(best, bestD, i+1, q.d2Of(slab, off+stride+dim, t1))
		best, bestD = pick(best, bestD, i+2, q.d2Of(slab, off+2*stride+dim, t2))
		best, bestD = pick(best, bestD, i+3, q.d2Of(slab, off+3*stride+dim, t3))
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		t0, t1 := dot2(r0, r1, qls)
		best, bestD = pick(best, bestD, i, q.d2Of(slab, off+dim, t0))
		best, bestD = pick(best, bestD, i+1, q.d2Of(slab, off+stride+dim, t1))
		i, off = i+2, off+2*stride
	}
	if i < k {
		best, bestD = pick(best, bestD, i, q.d2Of(slab, off+dim, dot1(slab[off:off+dim:off+dim], qls)))
	}
	return best, bestD
}

// d2Of is kernelD2's tail for one candidate, given its dot product and
// the offset of its ls-slab tail words (SS/N, SS, float64(N)).
//
//birchlint:hotpath
func (q *Query) d2Of(slab []float64, tail int, dot float64) float64 {
	d := slab[tail] + q.ssOverN - 2*dot/(slab[tail+2]*q.n)
	if d < 0 {
		d = 0
	}
	return d
}

// scanD3 fuses kernelD3: the squared diameter of the merged cluster from
// the raw triples in the ls slab. The count sum n1+n2 is added in integer
// form exactly as the kernel does, so this scan also reads the n array.
//
//birchlint:hotpath
func scanD3(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 3
	nn := b.n
	k := len(nn)
	slab := b.ls
	qls := q.ls[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		t0, t1, t2, t3 := sumSq4(r0, r1, r2, r3, qls)
		best, bestD = pick(best, bestD, i, q.d3Of(nn[i], slab[off+dim+1], t0))
		best, bestD = pick(best, bestD, i+1, q.d3Of(nn[i+1], slab[off+stride+dim+1], t1))
		best, bestD = pick(best, bestD, i+2, q.d3Of(nn[i+2], slab[off+2*stride+dim+1], t2))
		best, bestD = pick(best, bestD, i+3, q.d3Of(nn[i+3], slab[off+3*stride+dim+1], t3))
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		t0, t1 := sumSq2(r0, r1, qls)
		best, bestD = pick(best, bestD, i, q.d3Of(nn[i], slab[off+dim+1], t0))
		best, bestD = pick(best, bestD, i+1, q.d3Of(nn[i+1], slab[off+stride+dim+1], t1))
		i, off = i+2, off+2*stride
	}
	if i < k {
		best, bestD = pick(best, bestD, i, q.d3Of(nn[i], slab[off+dim+1], sumSq1(slab[off:off+dim:off+dim], qls)))
	}
	return best, bestD
}

// d3Of is kernelD3's tail for one candidate of count nc and square sum
// ss, given ‖LSc + LSq‖².
//
//birchlint:hotpath
func (q *Query) d3Of(nc int64, ss, lsSq float64) float64 {
	var d float64
	if n := float64(nc + q.ni); n >= 2 {
		sum := ss + q.ss
		d = (2*n*sum - 2*lsSq) / (n * (n - 1))
		if d < 0 {
			d = 0
		}
	}
	return d
}

// scanD4 fuses kernelD4: the Ward-form variance increase with both
// centroids hoisted, one linear pass over the x0 slab (the candidate's
// float64(N) is the slab's tail word).
//
//birchlint:hotpath
func scanD4(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		s0, s1, s2, s3 := sqDiff4(r0, r1, r2, r3, qx)
		best, bestD = pick(best, bestD, i, q.d4Of(slab[off+dim], s0))
		best, bestD = pick(best, bestD, i+1, q.d4Of(slab[off+stride+dim], s1))
		best, bestD = pick(best, bestD, i+2, q.d4Of(slab[off+2*stride+dim], s2))
		best, bestD = pick(best, bestD, i+3, q.d4Of(slab[off+3*stride+dim], s3))
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		s0, s1 := sqDiff2(r0, r1, qx)
		best, bestD = pick(best, bestD, i, q.d4Of(slab[off+dim], s0))
		best, bestD = pick(best, bestD, i+1, q.d4Of(slab[off+stride+dim], s1))
		i, off = i+2, off+2*stride
	}
	if i < k {
		best, bestD = pick(best, bestD, i, q.d4Of(slab[off+dim], sqDiff1(slab[off:off+dim:off+dim], qx)))
	}
	return best, bestD
}

// d4Of is kernelD4's tail for a candidate of count na (as float64),
// given the squared centroid distance.
//
//birchlint:hotpath
func (q *Query) d4Of(na, cdistSq float64) float64 {
	return na * q.n / (na + q.n) * cdistSq
}

// scanD2b fuses kernelD2b over a betula block: Sa/Na + Sb/Nb + ‖μa−μb‖²,
// streaming the x0 slab (means) and the candidate's hoisted S/N from the
// sb side slab. Every term is non-negative — no clamp, matching the
// kernel exactly.
//
//birchlint:hotpath
func scanD2b(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	sb := b.sb
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		s0, s1, s2, s3 := sqDiff4(r0, r1, r2, r3, qx)
		best, bestD = pick(best, bestD, i, sb[2*i]+q.ssOverN+s0)
		best, bestD = pick(best, bestD, i+1, sb[2*i+2]+q.ssOverN+s1)
		best, bestD = pick(best, bestD, i+2, sb[2*i+4]+q.ssOverN+s2)
		best, bestD = pick(best, bestD, i+3, sb[2*i+6]+q.ssOverN+s3)
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		s0, s1 := sqDiff2(r0, r1, qx)
		best, bestD = pick(best, bestD, i, sb[2*i]+q.ssOverN+s0)
		best, bestD = pick(best, bestD, i+1, sb[2*i+2]+q.ssOverN+s1)
		i, off = i+2, off+2*stride
	}
	if i < k {
		best, bestD = pick(best, bestD, i, sb[2*i]+q.ssOverN+sqDiff1(slab[off:off+dim:off+dim], qx))
	}
	return best, bestD
}

// scanD3b fuses kernelD3b: 2·S(cand ∪ q)/(N−1) via the stable
// merged-deviation formula, streaming means from the x0 slab, S from the
// sb slab and counts from the n array (added in integer form exactly as
// the kernel does).
//
//birchlint:hotpath
func scanD3b(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	nn := b.n
	k := len(nn)
	slab := b.x0
	sb := b.sb
	qx := q.x0[:dim] // bounds-check elimination hint
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		s0, s1, s2, s3 := sqDiff4(r0, r1, r2, r3, qx)
		best, bestD = pick(best, bestD, i, q.d3bOf(nn[i], sb[2*i+1], s0))
		best, bestD = pick(best, bestD, i+1, q.d3bOf(nn[i+1], sb[2*i+3], s1))
		best, bestD = pick(best, bestD, i+2, q.d3bOf(nn[i+2], sb[2*i+5], s2))
		best, bestD = pick(best, bestD, i+3, q.d3bOf(nn[i+3], sb[2*i+7], s3))
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		s0, s1 := sqDiff2(r0, r1, qx)
		best, bestD = pick(best, bestD, i, q.d3bOf(nn[i], sb[2*i+1], s0))
		best, bestD = pick(best, bestD, i+1, q.d3bOf(nn[i+1], sb[2*i+3], s1))
		i, off = i+2, off+2*stride
	}
	if i < k {
		best, bestD = pick(best, bestD, i, q.d3bOf(nn[i], sb[2*i+1], sqDiff1(slab[off:off+dim:off+dim], qx)))
	}
	return best, bestD
}

// d3bOf is kernelD3b's tail for a candidate of count nc and deviation
// sum s, given the squared distance between the means.
//
//birchlint:hotpath
func (q *Query) d3bOf(nc int64, s, d2 float64) float64 {
	var d float64
	if n := float64(nc + q.ni); n >= 2 {
		na := float64(nc)
		merged := s + q.ss + na*q.n/n*d2
		d = 2 * merged / (n - 1)
	}
	return d
}

// scanCos fuses kernelCos over the block: one dot-product stream per
// candidate against the x0 slab, with the candidate's centroid norm read
// from the cn side slab instead of re-accumulated — the slab word was
// computed from the same row by the same operations (setNorm), so the
// result is bit-identical to the kernel. Shared by both backends: the x0
// slab stores centroids under each.
//
//birchlint:hotpath
func scanCos(q *Query, b *Block) (int, float64) {
	dim := b.dim
	stride := dim + 1
	k := len(b.n)
	slab := b.x0
	cn := b.cn
	qx := q.x0[:dim] // bounds-check elimination hint
	qn := q.x0Norm
	best, bestD := 0, 0.0
	i, off := 0, 0
	for ; i+4 <= k; i, off = i+4, off+4*stride {
		r0, r1, r2, r3 := rows4(slab, off, stride, dim)
		t0, t1, t2, t3 := dot4(r0, r1, r2, r3, qx)
		best, bestD = pick(best, bestD, i, cosDistSq(t0, cn[i], qn))
		best, bestD = pick(best, bestD, i+1, cosDistSq(t1, cn[i+1], qn))
		best, bestD = pick(best, bestD, i+2, cosDistSq(t2, cn[i+2], qn))
		best, bestD = pick(best, bestD, i+3, cosDistSq(t3, cn[i+3], qn))
	}
	if i+2 <= k {
		r0, r1 := rows2(slab, off, stride, dim)
		t0, t1 := dot2(r0, r1, qx)
		best, bestD = pick(best, bestD, i, cosDistSq(t0, cn[i], qn))
		best, bestD = pick(best, bestD, i+1, cosDistSq(t1, cn[i+1], qn))
		i, off = i+2, off+2*stride
	}
	if i < k {
		best, bestD = pick(best, bestD, i, cosDistSq(dot1(slab[off:off+dim:off+dim], qx), cn[i], qn))
	}
	return best, bestD
}

// The lane helpers. rows4 and rows2 slice the dim-component rows of
// consecutive slots; each accumulator helper then returns one sum per
// row, taken over the query's components in index order with exactly
// the per-component expression of the reference loop (candidate operand
// first). Callers pass rows and a query of the same length, so once the
// helpers are inlined the compiler drops every bounds check in the
// component loops.

// rows4 returns the n-component rows of the four slots that start at
// off, off+stride, off+2·stride and off+3·stride.
//
//birchlint:hotpath
func rows4(slab []float64, off, stride, n int) (r0, r1, r2, r3 []float64) {
	r0 = slab[off : off+n : off+n]
	off += stride
	r1 = slab[off : off+n : off+n]
	off += stride
	r2 = slab[off : off+n : off+n]
	off += stride
	r3 = slab[off : off+n : off+n]
	return r0, r1, r2, r3
}

// rows2 is rows4 for two slots.
//
//birchlint:hotpath
func rows2(slab []float64, off, stride, n int) (r0, r1 []float64) {
	r0 = slab[off : off+n : off+n]
	off += stride
	r1 = slab[off : off+n : off+n]
	return r0, r1
}

// sqDiff4 returns Σⱼ (rᵢ[j] − q[j])² for four rows: the inner loop of
// D0, D4, the betula D2/D3 and the flat nearest-centroid scan.
//
//birchlint:hotpath
func sqDiff4(r0, r1, r2, r3, q []float64) (s0, s1, s2, s3 float64) {
	for j, x := range q {
		d0, d1, d2, d3 := r0[j]-x, r1[j]-x, r2[j]-x, r3[j]-x
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// sqDiff2 is sqDiff4 for two rows.
//
//birchlint:hotpath
func sqDiff2(r0, r1, q []float64) (s0, s1 float64) {
	for j, x := range q {
		d0, d1 := r0[j]-x, r1[j]-x
		s0 += d0 * d0
		s1 += d1 * d1
	}
	return s0, s1
}

// sqDiff1 is sqDiff4 for one row.
//
//birchlint:hotpath
func sqDiff1(r, q []float64) (s float64) {
	for j, x := range q {
		d := r[j] - x
		s += d * d
	}
	return s
}

// absDiff4 returns Σⱼ |rᵢ[j] − q[j]| for four rows: the inner loop of
// D1.
//
//birchlint:hotpath
func absDiff4(r0, r1, r2, r3, q []float64) (s0, s1, s2, s3 float64) {
	for j, x := range q {
		s0 += math.Abs(r0[j] - x)
		s1 += math.Abs(r1[j] - x)
		s2 += math.Abs(r2[j] - x)
		s3 += math.Abs(r3[j] - x)
	}
	return s0, s1, s2, s3
}

// absDiff2 is absDiff4 for two rows.
//
//birchlint:hotpath
func absDiff2(r0, r1, q []float64) (s0, s1 float64) {
	for j, x := range q {
		s0 += math.Abs(r0[j] - x)
		s1 += math.Abs(r1[j] - x)
	}
	return s0, s1
}

// absDiff1 is absDiff4 for one row.
//
//birchlint:hotpath
func absDiff1(r, q []float64) (s float64) {
	for j, x := range q {
		s += math.Abs(r[j] - x)
	}
	return s
}

// dot4 returns Σⱼ rᵢ[j]·q[j] for four rows: the inner loop of the
// classic D2 (over the ls slab) and of DCos (over the x0 slab).
//
//birchlint:hotpath
func dot4(r0, r1, r2, r3, q []float64) (t0, t1, t2, t3 float64) {
	for j, x := range q {
		t0 += r0[j] * x
		t1 += r1[j] * x
		t2 += r2[j] * x
		t3 += r3[j] * x
	}
	return t0, t1, t2, t3
}

// dot2 is dot4 for two rows.
//
//birchlint:hotpath
func dot2(r0, r1, q []float64) (t0, t1 float64) {
	for j, x := range q {
		t0 += r0[j] * x
		t1 += r1[j] * x
	}
	return t0, t1
}

// dot1 is dot4 for one row.
//
//birchlint:hotpath
func dot1(r, q []float64) (t float64) {
	for j, x := range q {
		t += r[j] * x
	}
	return t
}

// sumSq4 returns Σⱼ (rᵢ[j] + q[j])² for four rows: the merged linear
// sum's squared norm in the classic D3.
//
//birchlint:hotpath
func sumSq4(r0, r1, r2, r3, q []float64) (s0, s1, s2, s3 float64) {
	for j, x := range q {
		a0, a1, a2, a3 := r0[j]+x, r1[j]+x, r2[j]+x, r3[j]+x
		s0 += a0 * a0
		s1 += a1 * a1
		s2 += a2 * a2
		s3 += a3 * a3
	}
	return s0, s1, s2, s3
}

// sumSq2 is sumSq4 for two rows.
//
//birchlint:hotpath
func sumSq2(r0, r1, q []float64) (s0, s1 float64) {
	for j, x := range q {
		a0, a1 := r0[j]+x, r1[j]+x
		s0 += a0 * a0
		s1 += a1 * a1
	}
	return s0, s1
}

// sumSq1 is sumSq4 for one row.
//
//birchlint:hotpath
func sumSq1(r, q []float64) (s float64) {
	for j, x := range q {
		a := r[j] + x
		s += a * a
	}
	return s
}
