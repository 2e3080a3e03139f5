package kmeans

import (
	"math"

	"birch/internal/cf"
	"birch/internal/vec"
)

// assignChunk is the fixed chunk width of the deterministic parallel
// assignment loops. Chunk boundaries depend only on the input length —
// never on the worker count — and every cross-chunk reduction folds in
// chunk-index order, so labels, per-cluster CF sums and the centroids
// derived from them are bit-identical for every worker count, including
// the inline one-worker path. Inputs at or below one chunk reproduce the
// plain sequential per-point accumulation exactly.
const assignChunk = 4096

// Assigner performs nearest-centroid assignment over raw points — the
// inner loop of BIRCH Phase 4 — with reusable buffers, the certified
// nearest-centroid search of Finder, and a deterministic chunked
// parallel reduction.
//
// The zero value is ready to use. Buffers (labels, per-cluster sums,
// per-chunk accumulators, the centroid finder) are retained across
// calls, so the steady state of a multi-pass refinement — same point
// count, same K, same dimension — performs zero heap allocations per
// pass (gated by TestAssignSteadyStateAllocs). The slices returned by
// Assign are owned by the Assigner and valid until the next call.
type Assigner struct {
	// Core selects the CF backend of the per-cluster summaries the
	// assigner accumulates (zero value: the classic triple). The BIRCH
	// pipeline sets it to its configured core so Phase 4's sums inherit
	// the same numerical behaviour as the tree — under BETULA the sums
	// stay stable even when the data sits at extreme offsets.
	Core cf.CoreKind

	finder    Finder
	labels    []int
	sums      []cf.CF // K final per-cluster sums
	chunkSums []cf.CF // numChunks × K partial sums, flat, chunk-major
	// ahead has one slot per chunk that keeps the chunk's look-ahead
	// loads live (vec.LoadAhead); each chunk writes only its own slot,
	// so parallel chunks never share a word. The values mean nothing.
	ahead []uint64
}

// Assign labels every point with its nearest centroid and returns the
// label per point plus the per-cluster CF summaries of the partition.
// Points farther than discardBeyond from every centroid get label -1 and
// are excluded from the summaries; discardBeyond ≤ 0 disables
// discarding. workers bounds the goroutines used (≤ 1 runs inline); the
// result is bit-identical for every value.
//
// Each fixed-width chunk accumulates its own per-cluster sums in point
// order; the final sums fold the chunk partials in chunk-index order.
// That reduction grid is the determinism argument: it is a function of
// len(points) alone, so no scheduling decision can reassociate a single
// floating-point addition.
//
//birchlint:hotpath
func (a *Assigner) Assign(points, centroids []vec.Vector, discardBeyond float64, workers int) ([]int, []cf.CF) {
	if len(centroids) == 0 {
		panic("kmeans: Assign with no centroids")
	}
	k := len(centroids)
	dim := centroids[0].Dim()
	n := len(points)
	chunks := (n + assignChunk - 1) / assignChunk

	if cap(a.labels) < n {
		a.labels = make([]int, n)
	}
	a.labels = a.labels[:n]
	if cap(a.ahead) < chunks {
		a.ahead = make([]uint64, chunks)
	}
	a.ahead = a.ahead[:chunks]
	a.sums = growCFs(a.sums, k, dim, a.Core)
	a.chunkSums = growCFs(a.chunkSums, chunks*k, dim, a.Core)
	a.finder.Reset(centroids)

	limit := math.Inf(1)
	if discardBeyond > 0 {
		limit = discardBeyond * discardBeyond
	}

	if workers <= 1 || chunks == 1 {
		for c := 0; c < chunks; c++ {
			lo := c * assignChunk
			a.assignChunk(points, c, lo, min(lo+assignChunk, n), k, limit)
		}
	} else {
		//birchlint:ignore hotpath parallel fan-out; the gated steady state is the inline one-worker path
		forChunks(n, assignChunk, workers, func(c, lo, hi int) {
			a.assignChunk(points, c, lo, hi, k, limit)
		})
	}

	// Ordered reduction: chunk partials fold lowest chunk first.
	for j := 0; j < k; j++ {
		s := &a.sums[j]
		s.Reset()
		for c := 0; c < chunks; c++ {
			s.Merge(&a.chunkSums[c*k+j])
		}
	}
	return a.labels, a.sums
}

// assignChunk labels points[lo:hi] and accumulates their mass into chunk
// c's private per-cluster partial sums. A plain method rather than a
// closure so the inline one-worker path allocates nothing. Like the
// Phase 1 scan it loads each next group of vec.LookAheadGroup points
// (within the chunk) before working through the current one; the loads
// change nothing but the chunk's ahead slot. The chunk's searches run
// under one guard (Finder), which only decides how each answer is found.
//
//birchlint:hotpath
func (a *Assigner) assignChunk(points []vec.Vector, c, lo, hi, k int, limit float64) {
	sums := a.chunkSums[c*k : (c+1)*k]
	for j := range sums {
		sums[j].Reset()
	}
	const group = vec.LookAheadGroup
	var ahead uint64
	var g guard
	for glo := lo; glo < hi; glo += group {
		ghi := min(glo+group, hi)
		ahead ^= vec.LoadAhead(points[ghi:min(ghi+group, hi)])
		for i := glo; i < ghi; i++ {
			p := points[i]
			best, bestD := a.finder.nearest(p, &g)
			if bestD > limit {
				a.labels[i] = -1
				continue
			}
			a.labels[i] = best
			sums[best].AddPoint(p)
		}
	}
	a.ahead[c] = ahead
}

// growCFs returns a slice of n empty CFs of the given dimension and core
// kind, reusing s's slots (and their LS buffers) where both match.
//
//birchlint:coldpath
func growCFs(s []cf.CF, n, dim int, kind cf.CoreKind) []cf.CF {
	if cap(s) >= n {
		s = s[:n]
	} else {
		s = append(s[:cap(s)], make([]cf.CF, n-cap(s))...)
	}
	for i := range s {
		if s[i].Dim() != dim || s[i].Kind() != kind {
			s[i] = cf.NewCore(dim, kind)
		} else {
			s[i].Reset()
		}
	}
	return s
}

// AssignPoints labels raw points by nearest centroid — the core of BIRCH
// Phase 4. It returns the label per point and the per-cluster CF
// summaries of the resulting partition. Points farther than
// discardBeyond from every centroid get label -1 and are excluded from
// the summaries (the paper's "treat as outlier" option); pass
// discardBeyond ≤ 0 to disable discarding.
//
// This is the convenience form of Assigner.Assign with fresh buffers and
// the inline one-worker path; multi-pass or multi-core callers hold an
// Assigner instead.
func AssignPoints(points []vec.Vector, centroids []vec.Vector, discardBeyond float64) ([]int, []cf.CF) {
	var a Assigner
	return a.Assign(points, centroids, discardBeyond, 1)
}

// AssignPointsReference is the pre-parallel reference implementation:
// one sequential pass, per-point accumulation in input order, and the
// brute NearestBrute loop per point. The differential tests and the
// tail benchmark hold the production path against it.
func AssignPointsReference(points []vec.Vector, centroids []vec.Vector, discardBeyond float64) ([]int, []cf.CF) {
	if len(centroids) == 0 {
		panic("kmeans: AssignPoints with no centroids")
	}
	labels := make([]int, len(points))
	sums := make([]cf.CF, len(centroids))
	for c := range sums {
		sums[c] = cf.New(centroids[c].Dim())
	}
	limit := math.Inf(1)
	if discardBeyond > 0 {
		limit = discardBeyond * discardBeyond
	}
	for i, p := range points {
		best, bestD := NearestBrute(centroids, p)
		if bestD > limit {
			labels[i] = -1
			continue
		}
		labels[i] = best
		sums[best].AddPoint(p)
	}
	return labels, sums
}
