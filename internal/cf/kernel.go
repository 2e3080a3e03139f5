package cf

import (
	"math"

	"birch/internal/vec"
)

// This file provides the metric-specialized distance kernels: the one
// production implementation of a CF-pair distance. A Kernel fixes the
// metric and the core once, and a Query hoists one operand's constant
// terms (centroid components, SS/N, the centroid norm) once per binding,
// leaving only candidate-side work per pair. Every pair path binds one
// operand and calls the kernel: the CF-tree's split seeds and
// redistribution, merging refinement's closest pair and the D_min
// threshold candidate (cftree), and Phase 3's distance matrix (hc). The
// node argmin of the descent runs the block scans (scan.go, sparse.go),
// which reproduce the kernel loop bit for bit.
//
// Exactness contract: for every metric m, both cores and every non-empty
// pair (cand, q) of one core,
//
//	KernelForCore(m, kind)(qry bound to q, cand) == DistanceSq(m, cand, q)
//
// bit-for-bit, where DistanceSq is the generic per-pair oracle in
// distance_ref_test.go. The kernels perform the same floating-point
// operations in the same order as the oracle, hoisting only whole
// subexpressions (q.LS[i]/Nq, q.SS/Nq) whose values are unchanged by
// being computed earlier. Every metric is also bitwise symmetric in its
// operands — x − y = −(y − x) exactly, + and × commute exactly, and both
// orders sum the components in the same order — so binding either
// operand of a pair gives the same bits. kernel_test.go checks both for
// every (metric, core) pair, in both operand orders, including the
// cancellation cases the clamp guards exist for.

// Kernel computes the squared metric distance between one candidate CF
// and the query bound into q. Implementations are top-level functions
// (closure-free): KernelForCore resolves the metric switch once, and the
// per-pair call is a plain indirect call with no captured state. Callers
// pass the address of a slice element, never of a range copy: the
// indirect call lets the compiler assume the pointer escapes, which would
// move the copy to the heap on every iteration.
type Kernel func(q *Query, cand *CF) float64

// Query holds a copy of a query CF together with its hoisted constant
// terms. One Query is reused for the lifetime of a tree: Bind recomputes
// the state in place without allocating. The triple is copied rather
// than referenced so binding a stack-local CF does not force it to
// escape to the heap — the zero-allocation contract of the insert path
// depends on this.
type Query struct {
	// ni, ls, ss are the query triple (N as int64, LS copied into an
	// owned buffer, SS).
	ni int64
	ls vec.Vector
	ss float64
	// n is float64(N), the conversion hoisted.
	n float64
	// ssOverN is SS/N, the query's constant term in D2.
	ssOverN float64
	// x0 is the query centroid LS[i]/N, the constant vector in D0, D1
	// and D4. Each component is the same division the generic path
	// performs per candidate, done once here. Under BETULA the stored
	// mean is the centroid, so x0 is a plain copy of it.
	x0 vec.Vector
	// x0Norm is ‖x0‖, the query's constant norm in DCos, accumulated
	// over the x0 components in index order — the same operations the
	// generic cosine path performs on the query side, done once here.
	x0Norm float64
	// kind is the backend of the bound CF; kernels resolved via
	// KernelForCore assume all candidates share it.
	kind CoreKind
	// spIdx/spVal are the sparse gather view of the bound query: the
	// nonzero coordinates of the singleton point bound via BindSparse,
	// aliased (not copied) for the duration of one insertion. nil after
	// a dense Bind; the sparse scan kernels require them.
	spIdx []int32
	spVal []float64
}

// NewQuery returns a Query with scratch buffers for dimension dim.
func NewQuery(dim int) *Query {
	return &Query{ls: vec.New(dim), x0: vec.New(dim)}
}

// Bind copies c into the query and refreshes the hoisted terms. c must
// be non-empty and of the query's dimension. Bind performs no allocation
// and does not retain c.
//
//birchlint:hotpath
func (q *Query) Bind(c *CF) {
	if c.N == 0 {
		panic("cf: binding query to empty CF")
	}
	if c.Dim() != len(q.x0) {
		panic("cf: query dimension mismatch")
	}
	q.kind = c.kind
	q.ni = c.N
	copy(q.ls, c.LS)
	q.ss = c.SS
	q.n = float64(c.N)
	q.ssOverN = c.SS / q.n
	q.spIdx, q.spVal = nil, nil
	var nsq float64
	if c.kind == CoreBETULA {
		copy(q.x0, c.LS)
		for _, v := range q.x0 {
			nsq += v * v
		}
		q.x0Norm = math.Sqrt(nsq)
		return
	}
	for i := range q.x0 {
		v := c.LS[i] / q.n
		q.x0[i] = v
		nsq += v * v
	}
	q.x0Norm = math.Sqrt(nsq)
}

// KernelForCore returns the specialized kernel for metric m under the
// given CF-core backend. The returned kernel assumes both the bound
// query and every candidate carry that backend's kind.
func KernelForCore(m Metric, kind CoreKind) Kernel {
	if kind == CoreBETULA {
		switch m {
		case D0:
			return kernelD0b
		case D1:
			return kernelD1b
		case D2:
			return kernelD2b
		case D3:
			return kernelD3b
		case D4:
			return kernelD4b
		case DCos:
			return kernelCosB
		default:
			panic("cf: invalid metric " + m.String())
		}
	}
	switch m {
	case D0:
		return kernelD0
	case D1:
		return kernelD1
	case D2:
		return kernelD2
	case D3:
		return kernelD3
	case D4:
		return kernelD4
	case DCos:
		return kernelCos
	default:
		panic("cf: invalid metric " + m.String())
	}
}

// kernelD0 is DistanceSq(D0, cand, q): squared Euclidean centroid
// distance. The sqrt-then-square round trip mirrors the generic path
// exactly — dropping it would change low bits and break bit-equality.
//
//birchlint:hotpath
func kernelD0(q *Query, cand *CF) float64 {
	na := float64(cand.N)
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var s float64
	for i, ls := range cand.LS {
		d := ls/na - x0[i]
		s += d * d
	}
	d := math.Sqrt(s)
	return d * d
}

// kernelD1 is DistanceSq(D1, cand, q): squared Manhattan centroid
// distance.
//
//birchlint:hotpath
func kernelD1(q *Query, cand *CF) float64 {
	na := float64(cand.N)
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var s float64
	for i, ls := range cand.LS {
		s += math.Abs(ls/na - x0[i])
	}
	return s * s
}

// kernelD2 is DistanceSq(D2, cand, q): the average inter-cluster squared
// distance SS1/N1 + SS2/N2 − 2·(LS1·LS2)/(N1·N2), with the query's SS/N
// hoisted. Cancellation can drive the value slightly negative; clamped
// to 0 exactly as the generic path does.
//
//birchlint:hotpath
func kernelD2(q *Query, cand *CF) float64 {
	na := float64(cand.N)
	qls := q.ls[:len(cand.LS)] // bounds-check elimination hint
	var dot float64
	for i, ls := range cand.LS {
		dot += ls * qls[i]
	}
	v := cand.SS/na + q.ssOverN - 2*dot/(na*q.n)
	if v < 0 {
		return 0
	}
	return v
}

// kernelD3 is DistanceSq(D3, cand, q): the squared diameter of the merged
// cluster, computed from the triples without materializing the merge.
//
//birchlint:hotpath
func kernelD3(q *Query, cand *CF) float64 {
	n := float64(cand.N + q.ni)
	if n < 2 {
		return 0
	}
	ss := cand.SS + q.ss
	qls := q.ls[:len(cand.LS)] // bounds-check elimination hint
	var lsSq float64
	for i, ls := range cand.LS {
		s := ls + qls[i]
		lsSq += s * s
	}
	d2 := (2*n*ss - 2*lsSq) / (n * (n - 1))
	if d2 < 0 {
		return 0
	}
	return d2
}

// kernelD4 is DistanceSq(D4, cand, q): the variance increase in Ward
// form (N1·N2/(N1+N2))·‖X01 − X02‖², with the query centroid hoisted.
//
//birchlint:hotpath
func kernelD4(q *Query, cand *CF) float64 {
	na := float64(cand.N)
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var cdistSq float64
	for i, ls := range cand.LS {
		d := ls/na - x0[i]
		cdistSq += d * d
	}
	return na * q.n / (na + q.n) * cdistSq
}

// kernelCos is DistanceSq(DCos, cand, q): the squared cosine distance
// between centroids, with the query's centroid and norm hoisted. The
// candidate-side dot and squared-norm accumulators are independent
// streams, so dropping the generic path's query-norm accumulation from
// the loop (it lives in Bind) changes no bits.
//
//birchlint:hotpath
func kernelCos(q *Query, cand *CF) float64 {
	na := float64(cand.N)
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var dot, aa float64
	for i, ls := range cand.LS {
		xa := ls / na
		dot += xa * x0[i]
		aa += xa * xa
	}
	return cosDistSq(dot, math.Sqrt(aa), q.x0Norm)
}

// The BETULA kernels mirror the betula DistanceSq bodies of the oracle
// bit-for-bit, under the same exactness contract as the classic kernels.
// Candidate centroids are the stored means, so the per-candidate ls/na
// divisions of the classic kernels disappear — the betula inner loops
// are pure subtract-multiply streams.

// kernelD0b is the BETULA D0: squared Euclidean distance between stored
// means, with the same sqrt-then-square round trip as the generic path.
//
//birchlint:hotpath
func kernelD0b(q *Query, cand *CF) float64 {
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var s float64
	for i, mu := range cand.LS {
		d := mu - x0[i]
		s += d * d
	}
	d := math.Sqrt(s)
	return d * d
}

// kernelD1b is the BETULA D1: Manhattan distance between stored means.
//
//birchlint:hotpath
func kernelD1b(q *Query, cand *CF) float64 {
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var s float64
	for i, mu := range cand.LS {
		s += math.Abs(mu - x0[i])
	}
	return s * s
}

// kernelD2b is the BETULA D2²: Sa/Na + Sb/Nb + ‖μa − μb‖², with the
// query's S/N hoisted. Every term is non-negative — no clamp.
//
//birchlint:hotpath
func kernelD2b(q *Query, cand *CF) float64 {
	na := float64(cand.N)
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var d2 float64
	for i, mu := range cand.LS {
		d := mu - x0[i]
		d2 += d * d
	}
	return cand.SS/na + q.ssOverN + d2
}

// kernelD3b is the BETULA D3²: 2·S(cand ∪ q)/(N−1) via the stable
// merged-deviation formula.
//
//birchlint:hotpath
func kernelD3b(q *Query, cand *CF) float64 {
	n := float64(cand.N + q.ni)
	if n < 2 {
		return 0
	}
	na := float64(cand.N)
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var d2 float64
	for i, mu := range cand.LS {
		d := mu - x0[i]
		d2 += d * d
	}
	s := cand.SS + q.ss + na*q.n/n*d2
	return 2 * s / (n - 1)
}

// kernelD4b is the BETULA D4²: Ward form over stored means.
//
//birchlint:hotpath
func kernelD4b(q *Query, cand *CF) float64 {
	na := float64(cand.N)
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var cdistSq float64
	for i, mu := range cand.LS {
		d := mu - x0[i]
		cdistSq += d * d
	}
	return na * q.n / (na + q.n) * cdistSq
}

// kernelCosB is the BETULA DCos: squared cosine distance over stored
// means, query centroid and norm hoisted.
//
//birchlint:hotpath
func kernelCosB(q *Query, cand *CF) float64 {
	x0 := q.x0[:len(cand.LS)] // bounds-check elimination hint
	var dot, aa float64
	for i, mu := range cand.LS {
		dot += mu * x0[i]
		aa += mu * mu
	}
	return cosDistSq(dot, math.Sqrt(aa), q.x0Norm)
}
