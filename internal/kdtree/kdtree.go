// Package kdtree builds a k-d tree over d-dimensional points for one
// job: a cheap first guess at the nearest of K centroids. BIRCH's Phase 4
// assigns every data point to the closest of K centroids — an O(N·K)
// loop in the paper's description. kmeans.Finder answers each query
// exactly by taking this tree's guess and certifying it (or scanning);
// the tree itself never backtracks, so its answer is a guess, not the
// nearest point.
package kdtree

import (
	"cmp"
	"slices"

	"birch/internal/vec"
)

// Tree is a k-d tree over a fixed point set.
type Tree struct {
	points []vec.Vector
	nodes  []node
	// coords holds every node's point, dim floats each, in arena order,
	// so a descent streams one array instead of chasing a vector per
	// node.
	coords []float64
	idx    []int32 // build scratch, kept so Reset allocates nothing
	root   int32
	dim    int
}

// node is one k-d tree node, stored in a flat arena.
type node struct {
	point       int32 // index into points
	left, right int32 // arena indexes, -1 for none
	axis        int32
}

// Build constructs a k-d tree over the given points. The slice is not
// copied; callers must not mutate the points afterwards. Build panics on
// an empty input or mixed dimensionality.
func Build(points []vec.Vector) *Tree {
	t := &Tree{}
	t.Reset(points)
	return t
}

// Reset rebuilds t over points in place. Its arena and scratch are
// reused, so a rebuild over as many points as before allocates nothing.
// Reset panics on an empty input or mixed dimensionality.
//
//birchlint:coldpath
func (t *Tree) Reset(points []vec.Vector) {
	if len(points) == 0 {
		panic("kdtree: no points")
	}
	dim := points[0].Dim()
	for i, p := range points {
		if p.Dim() != dim {
			panic("kdtree: mixed dimensionality at point " + itoa(i))
		}
	}
	t.points = points
	t.dim = dim
	if cap(t.nodes) < len(points) {
		t.nodes = make([]node, 0, len(points))
		t.idx = make([]int32, len(points))
	}
	if cap(t.coords) < len(points)*dim {
		t.coords = make([]float64, len(points)*dim)
	}
	t.nodes = t.nodes[:0]
	t.idx = t.idx[:len(points)]
	t.coords = t.coords[:len(points)*dim]
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.root = t.build(t.idx, 0)
	for i, n := range t.nodes {
		copy(t.coords[i*dim:(i+1)*dim], points[n.point])
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// build recursively constructs the subtree over idx, splitting at the
// median along the cycling axis, and returns the arena index of the root.
// Every point left of the median has a strictly smaller coordinate on
// the split axis; equal coordinates go right.
func (t *Tree) build(idx []int32, depth int) int32 {
	if len(idx) == 0 {
		return -1
	}
	axis := depth % t.dim
	t.sortAxis(idx, axis)
	mid := len(idx) / 2
	// Walk left so equal coordinates end up on the right subtree only.
	// Exact equality is intended: these are stored input coordinates
	// compared for identity, not cancellation-prone derived quantities.
	//birchlint:ignore floateq identity comparison of stored input coordinates
	for mid > 0 && t.points[idx[mid-1]][axis] == t.points[idx[mid]][axis] {
		mid--
	}
	me := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{point: idx[mid], axis: int32(axis), left: -1, right: -1})
	left := t.build(idx[:mid], depth+1)
	right := t.build(idx[mid+1:], depth+1)
	t.nodes[me].left = left
	t.nodes[me].right = right
	return me
}

// sortAxis orders idx by the points' coordinate on axis, ties by index,
// so the order is a function of the points alone (cmp.Compare puts NaN
// first, so non-finite points still sort). slices.SortFunc with this
// non-escaping comparator allocates nothing.
func (t *Tree) sortAxis(idx []int32, axis int) {
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(t.points[a][axis], t.points[b][axis]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.points) }

// NearestOnPath descends greedily from the root to a leaf, always to the
// near side of each split and never back, and returns the index of the
// closest point on that path together with its squared Euclidean
// distance to q (vec.SqDist(q, point), so exactly the bits the brute
// loop computes for that point). On an earlier tie the first point on
// the path is kept. It is exact for a query equal to an indexed point,
// and otherwise only a guess: the nearest point may sit across a split.
// A NaN coordinate compares false and goes right.
//
// A node's distance is abandoned once its partial sum exceeds the best
// so far (vec.SqDistWithin); such a node could not have won.
//
//birchlint:hotpath
func (t *Tree) NearestOnPath(q vec.Vector) (int, float64) {
	if q.Dim() != t.dim {
		panic("kdtree: query dimension mismatch")
	}
	nodes, coords, dim := t.nodes, t.coords, t.dim
	best, bestD := int32(-1), 0.0
	for ni := t.root; ni >= 0; {
		n := &nodes[ni]
		p := coords[int(ni)*dim : int(ni)*dim+dim : int(ni)*dim+dim]
		if best < 0 {
			best, bestD = n.point, vec.SqDist(q, p)
		} else if d, ok := vec.SqDistWithin(q, p, bestD); ok && d < bestD {
			best, bestD = n.point, d
		}
		if q[n.axis] < p[n.axis] {
			ni = n.left
		} else {
			ni = n.right
		}
	}
	return int(best), bestD
}
