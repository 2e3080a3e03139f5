// Package vec provides the d-dimensional vector arithmetic that underlies
// BIRCH's metric-space computations: sums, scaling, dot products, and the
// Euclidean and Manhattan distances used by the D0 and D1 inter-cluster
// distance definitions of the paper.
//
// Vectors are plain []float64 slices so callers can construct them with
// composite literals; all binary operations require equal dimensionality
// and panic otherwise, because a dimension mismatch is always a programming
// error rather than a data error.
package vec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vector is a point or displacement in d-dimensional space.
type Vector []float64

// New returns a zero vector of dimension d.
func New(d int) Vector {
	if d < 0 {
		panic("vec: negative dimension")
	}
	return make(Vector, d)
}

// Of returns a vector holding the given components.
func Of(xs ...float64) Vector {
	v := make(Vector, len(xs))
	copy(v, xs)
	return v
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// assertSameDim panics unless v and w have the same dimension.
func assertSameDim(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// AddInPlace adds w into v component-wise.
func (v Vector) AddInPlace(w Vector) {
	assertSameDim(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// SubInPlace subtracts w from v component-wise.
func (v Vector) SubInPlace(w Vector) {
	assertSameDim(v, w)
	for i := range v {
		v[i] -= w[i]
	}
}

// ScaleInPlace multiplies every component of v by s.
func (v Vector) ScaleInPlace(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Add returns v + w as a new vector.
func Add(v, w Vector) Vector {
	assertSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w as a new vector.
func Sub(v, w Vector) Vector {
	assertSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns s*v as a new vector.
func Scale(v Vector, s float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

// Dot returns the inner product of v and w.
func Dot(v, w Vector) float64 {
	assertSameDim(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// SqNorm returns the squared Euclidean norm of v, i.e. Dot(v, v).
func (v Vector) SqNorm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.SqNorm()) }

// SqDist returns the squared Euclidean distance between v and w.
// This is the quantity inside the square root of the paper's D0 metric.
func SqDist(v, w Vector) float64 {
	assertSameDim(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// SqDistWithin is SqDist(v, w) — the same differences, squared and
// summed in component order, so the same bits — when that is at most
// limit (ok = true). Once the partial sum exceeds limit it stops with
// ok = false: the terms are non-negative, so the partial sums never
// decrease and the full sum would exceed limit too. w must be at least
// as long as v. Nearest-point searches use it to drop a candidate as
// soon as it cannot win.
//
//birchlint:hotpath
func SqDistWithin(v, w Vector, limit float64) (float64, bool) {
	w = w[:len(v)]
	var s float64
	for i, x := range v {
		d := x - w[i]
		if s += d * d; s > limit {
			return s, false
		}
	}
	return s, true
}

// Dist returns the Euclidean distance between v and w (the paper's D0).
func Dist(v, w Vector) float64 { return math.Sqrt(SqDist(v, w)) }

// ManhattanDist returns the L1 distance between v and w (the paper's D1).
func ManhattanDist(v, w Vector) float64 {
	assertSameDim(v, w)
	var s float64
	for i := range v {
		s += math.Abs(v[i] - w[i])
	}
	return s
}

// Equal reports whether v and w are component-wise identical.
func Equal(v, w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether every component of v and w differs by at most
// eps in absolute terms. It is intended for tests and numeric invariants.
func ApproxEqual(v, w Vector, eps float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > eps {
			return false
		}
	}
	return true
}

// IsFinite reports whether every component is neither NaN nor infinite.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// String renders the vector as "(x1, x2, ...)" with compact formatting.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Mean returns the component-wise mean of the given points. It panics if
// points is empty or dimensions disagree.
func Mean(points []Vector) Vector {
	if len(points) == 0 {
		panic("vec: Mean of no points")
	}
	m := New(points[0].Dim())
	for _, p := range points {
		m.AddInPlace(p)
	}
	m.ScaleInPlace(1 / float64(len(points)))
	return m
}
