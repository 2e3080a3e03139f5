package vec

import (
	"fmt"
	"math"
	"slices"
)

// Sparse is a d-dimensional vector stored as sorted (index, value) pairs —
// the CSR row format of the document/embedding workloads (K-tree, De Vries
// & Geva; PAPERS.md). Only the nonzero coordinates are materialized:
// Idx[t] is the coordinate of Val[t], indices strictly increasing in
// [0, D). Explicit zeros are permitted (an entry may carry the value 0);
// they are semantically identical to absent coordinates, and FromDense
// never produces them.
//
// Bit-exactness is the type's contract with the cf gather kernels: every
// reduction over a Sparse (SqNorm, DotDense) visits the stored entries in
// index order, so it performs a subsequence of the floating-point
// additions the equivalent dense loop performs. Because an IEEE-754
// accumulator that starts at +0 can never become −0 through additions,
// and adding a ±0 term leaves it bit-unchanged, skipping the zero terms
// is exact: the sparse reductions are Float64bits-identical to their
// densified dense counterparts. sparse_test.go pins this.
type Sparse struct {
	// D is the full dimensionality of the vector.
	D int
	// Idx holds the coordinates of the stored entries, strictly
	// increasing, each in [0, D).
	Idx []int32
	// Val holds the entry values, parallel to Idx.
	Val []float64
}

// NewSparse validates and wraps the given CSR pair as a Sparse of
// dimension d. The slices are not copied; the caller yields ownership.
func NewSparse(d int, idx []int32, val []float64) (Sparse, error) {
	s := Sparse{D: d, Idx: idx, Val: val}
	if err := s.Validate(); err != nil {
		return Sparse{}, err
	}
	return s, nil
}

// Dim returns the full dimensionality of the vector.
func (s Sparse) Dim() int { return s.D }

// NNZ returns the number of stored entries.
func (s Sparse) NNZ() int { return len(s.Idx) }

// Density returns NNZ/D, the stored-entry fraction. It is the quantity
// the measured gather/dense crossover (cf.SparseGatherMaxDensity) is
// compared against.
func (s Sparse) Density() float64 {
	if s.D == 0 {
		return 0
	}
	return float64(len(s.Idx)) / float64(s.D)
}

// Validate checks structural consistency: a positive dimension, parallel
// index/value slices, strictly increasing indices in [0, D), and finite
// values. It is the gate every untrusted Sparse (wire decode, public API)
// must pass before touching the scatter/gather paths, which index slabs
// without bounds checks beyond the slice's own.
func (s Sparse) Validate() error {
	if s.D <= 0 {
		return fmt.Errorf("vec: sparse dimension must be positive, got %d", s.D)
	}
	if len(s.Idx) != len(s.Val) {
		return fmt.Errorf("vec: sparse index/value length mismatch %d vs %d", len(s.Idx), len(s.Val))
	}
	prev := int32(-1)
	for t, ix := range s.Idx {
		if ix <= prev {
			return fmt.Errorf("vec: sparse indices not strictly increasing at %d (%d after %d)", t, ix, prev)
		}
		if int(ix) >= s.D {
			return fmt.Errorf("vec: sparse index %d out of range for dimension %d", ix, s.D)
		}
		prev = ix
	}
	for t, v := range s.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("vec: non-finite sparse value %g at entry %d", v, t)
		}
	}
	return nil
}

// Clone returns an independent deep copy of s.
func (s Sparse) Clone() Sparse {
	idx := make([]int32, len(s.Idx))
	copy(idx, s.Idx)
	val := make([]float64, len(s.Val))
	copy(val, s.Val)
	return Sparse{D: s.D, Idx: idx, Val: val}
}

// DenseInto densifies s into dst (which must have dimension D): zeros the
// whole vector, then scatters the stored entries. The clear is a memset,
// so the floating-point work is O(NNZ).
//
//birchlint:hotpath
func (s Sparse) DenseInto(dst Vector) Vector {
	if len(dst) != s.D {
		panic(fmt.Sprintf("vec: sparse densify dimension mismatch %d vs %d", len(dst), s.D))
	}
	clear(dst)
	for t, ix := range s.Idx {
		dst[ix] = s.Val[t]
	}
	return dst
}

// Dense returns a freshly allocated densification of s.
func (s Sparse) Dense() Vector {
	return s.DenseInto(New(s.D))
}

// DenseBatch densifies a batch of sparse points into rows of one backing
// array, so the whole batch costs two allocations. Every point must have
// the first point's dimension (DenseInto panics otherwise).
func DenseBatch(points []Sparse) []Vector {
	d := 0
	if len(points) > 0 {
		d = points[0].D
	}
	_, rows := DenseBatchInto(nil, nil, points, d)
	return rows
}

// DenseBatchInto is DenseBatch into reused storage: it densifies points,
// each of dimension d, into rows of backing, growing backing and rows
// only when they are too short, and returns both for the next call.
func DenseBatchInto(backing []float64, rows []Vector, points []Sparse, d int) ([]float64, []Vector) {
	n := len(points)
	backing = slices.Grow(backing[:0], n*d)[:n*d]
	rows = slices.Grow(rows[:0], n)[:n]
	for i, sp := range points {
		rows[i] = sp.DenseInto(backing[i*d : (i+1)*d : (i+1)*d])
	}
	return backing, rows
}

// ScatterInto writes the stored entries into dst without clearing the
// other coordinates — the O(NNZ) half of the maintain-a-zero-buffer
// protocol (pair with ZeroInto after use).
//
//birchlint:hotpath
func (s Sparse) ScatterInto(dst Vector) {
	if len(dst) != s.D {
		panic(fmt.Sprintf("vec: sparse scatter dimension mismatch %d vs %d", len(dst), s.D))
	}
	for t, ix := range s.Idx {
		dst[ix] = s.Val[t]
	}
}

// ZeroInto zeros dst at the stored indices, restoring the all-zero
// invariant of a scratch buffer previously filled by ScatterInto.
//
//birchlint:hotpath
func (s Sparse) ZeroInto(dst Vector) {
	if len(dst) != s.D {
		panic(fmt.Sprintf("vec: sparse zero dimension mismatch %d vs %d", len(dst), s.D))
	}
	for _, ix := range s.Idx {
		dst[ix] = 0
	}
}

// SqNorm returns the squared Euclidean norm Σ v². It is Float64bits-
// identical to Dense().SqNorm(): the dense loop's extra terms are all
// 0·0 = +0, which leave the accumulator bit-unchanged.
//
//birchlint:hotpath
func (s Sparse) SqNorm() float64 {
	var sum float64
	for _, v := range s.Val {
		sum += v * v
	}
	return sum
}

// Norm returns the Euclidean norm of s.
func (s Sparse) Norm() float64 { return math.Sqrt(s.SqNorm()) }

// DotDense returns the inner product of s with the dense vector w,
// gathering w at the stored indices. The operand order (dense gather
// times sparse value) and index-order accumulation make it
// Float64bits-identical to Dot(w, Dense()); the skipped terms are
// w[j]·0 = ±0, which leave the accumulator bit-unchanged.
//
//birchlint:hotpath
func (s Sparse) DotDense(w Vector) float64 {
	if len(w) != s.D {
		panic(fmt.Sprintf("vec: sparse dot dimension mismatch %d vs %d", len(w), s.D))
	}
	var sum float64
	for t, ix := range s.Idx {
		sum += w[ix] * s.Val[t]
	}
	return sum
}

// IsFinite reports whether every stored value is neither NaN nor infinite.
func (s Sparse) IsFinite() bool {
	for _, v := range s.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FromDense extracts the sparse form of p, skipping coordinates that are
// exactly zero (either sign). Densifying the result reproduces p up to
// the sign of its zeros, and every reduction over it matches the dense
// reductions bit-for-bit.
func FromDense(p Vector) Sparse {
	nnz := 0
	for _, x := range p {
		if x != 0 { //birchlint:ignore floateq exact zero test: only literal zeros may be dropped from the CSR form
			nnz++
		}
	}
	idx := make([]int32, 0, nnz)
	val := make([]float64, 0, nnz)
	for j, x := range p {
		if x != 0 { //birchlint:ignore floateq exact zero test, as above
			idx = append(idx, int32(j))
			val = append(val, x)
		}
	}
	return Sparse{D: len(p), Idx: idx, Val: val}
}

// String renders the sparse vector as "d:{i:v, ...}" for debugging.
func (s Sparse) String() string {
	out := fmt.Sprintf("%d:{", s.D)
	for t, ix := range s.Idx {
		if t > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%d:%g", ix, s.Val[t])
	}
	return out + "}"
}
