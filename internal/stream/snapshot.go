package stream

import (
	"math"

	"birch/internal/cf"
	"birch/internal/kmeans"
	"birch/internal/vec"
)

// Snapshot is an immutable, atomically-published view of the merged
// global clustering. Everything reachable from a Snapshot is owned by it
// alone — CFs and centroids are built fresh during compaction — so any
// number of readers may hold one across later publications without
// synchronization. A nil *Snapshot means nothing has been published yet.
//
//birchlint:immutable
type Snapshot struct {
	Gen    int64 // publication generation, strictly increasing
	Points int64 // total data-point mass covered (Σ N over Subclusters)

	Threshold   float64 // threshold of the merged CF tree
	Subclusters []cf.CF // leaf entries of the merged tree
	Clusters    []cf.CF // global clusters (empty if Phase 3 failed or K unset)
	Centroids   []vec.Vector
	Shards      []ShardStats

	// finder is the packed nearest-centroid index over Centroids, built
	// once at publication so every Classify/ClassifyBatch against this
	// snapshot is pure search. Immutable like the rest of the snapshot;
	// safe for concurrent queries. Nil when Centroids is empty (or for
	// snapshots built outside the engine, which fall back to the brute
	// scan).
	finder *kmeans.Finder
}

// buildFinder packs the snapshot's centroids into the serving index.
// Called once, at publication time, before the snapshot escapes.
func (s *Snapshot) buildFinder() {
	if len(s.Centroids) > 0 {
		s.finder = kmeans.NewFinder(s.Centroids)
	}
}

// Snapshot returns the current published snapshot, or nil before the
// first publication. Lock-free: a single atomic pointer load.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Classify assigns p to the nearest cluster centroid of the current
// snapshot and returns its index and Euclidean distance. ok is false
// before the first publication or when the snapshot has no centroids.
// Lock-free; safe to call at any time, including after Close.
//
//birchlint:hotpath
func (e *Engine) Classify(p vec.Vector) (idx int, dist float64, ok bool) {
	return e.snap.Load().Classify(p)
}

// ClassifyBatch classifies many points against the current snapshot in
// one call, amortizing the snapshot load and fanning the scan across at
// most workers goroutines. ok is false before the first publication or
// when the snapshot has no centroids. Lock-free with respect to writers.
func (e *Engine) ClassifyBatch(points []vec.Vector, workers int) (idx []int, dist []float64, ok bool) {
	return e.snap.Load().ClassifyBatch(points, workers)
}

// ClassifySparse assigns a sparse point to the nearest cluster centroid
// of the current snapshot — contractually identical to classifying its
// densification, which is how it is computed (the Euclidean
// nearest-centroid scan has no bit-identical gather form; see
// internal/cf/sparse.go). Lock-free with respect to writers.
func (e *Engine) ClassifySparse(sp vec.Sparse) (idx int, dist float64, ok bool) {
	return e.snap.Load().ClassifySparse(sp)
}

// ClassifySparseBatch classifies many sparse points against the current
// snapshot, the sparse analogue of ClassifyBatch. Lock-free with
// respect to writers.
func (e *Engine) ClassifySparseBatch(points []vec.Sparse, workers int) (idx []int, dist []float64, ok bool) {
	return e.snap.Load().ClassifySparseBatch(points, workers)
}

// Centroids returns the cluster centroids of the current snapshot (nil
// before the first publication). The slice is shared with the immutable
// snapshot; callers must not modify it.
func (e *Engine) Centroids() []vec.Vector {
	if s := e.snap.Load(); s != nil {
		return s.Centroids
	}
	return nil
}

// Classify assigns p to the nearest centroid of this snapshot. A nil
// receiver (nothing published yet) reports ok = false. A snapshot built
// without a packed finder scans its centroids with kmeans.NearestBrute,
// so a query whose every distance is +Inf or NaN still gets centroid 0,
// as ClassifyBatch and the finder give it.
//
//birchlint:hotpath
func (s *Snapshot) Classify(p vec.Vector) (idx int, dist float64, ok bool) {
	if s == nil || len(s.Centroids) == 0 {
		return -1, 0, false
	}
	var best int
	var bestD float64
	if s.finder != nil {
		best, bestD = s.finder.Nearest(p)
	} else {
		best, bestD = kmeans.NearestBrute(s.Centroids, p)
	}
	return best, math.Sqrt(bestD), true
}

// ClassifySparse assigns a sparse point to the nearest centroid of this
// snapshot, identical to Classify(sp.Dense()): the point is densified
// into a per-call scratch (one allocation), keeping the snapshot's
// any-number-of-readers concurrency contract. A nil receiver reports
// ok = false.
func (s *Snapshot) ClassifySparse(sp vec.Sparse) (idx int, dist float64, ok bool) {
	if s == nil || len(s.Centroids) == 0 {
		return -1, 0, false
	}
	return s.Classify(sp.Dense())
}

// ClassifySparseBatch classifies every sparse point against this
// snapshot's centroids, identical to ClassifyBatch over their
// densifications. The batch is densified into one backing array
// (vec.DenseBatch). A nil
// receiver or a snapshot without centroids reports ok = false.
func (s *Snapshot) ClassifySparseBatch(points []vec.Sparse, workers int) (idx []int, dist []float64, ok bool) {
	if s == nil || len(s.Centroids) == 0 {
		return nil, nil, false
	}
	return s.ClassifyBatch(vec.DenseBatch(points), workers)
}

// ClassifyBatch classifies every point against this snapshot's
// centroids, returning the cluster index and Euclidean distance per
// point in fresh slices. It is ClassifyBatchInto with new result
// slices; a nil receiver or a snapshot without centroids reports
// ok = false and nil slices.
func (s *Snapshot) ClassifyBatch(points []vec.Vector, workers int) (idx []int, dist []float64, ok bool) {
	idx, dist, ok = s.ClassifyBatchInto(points, make([]int, len(points)), make([]float64, len(points)), workers)
	if !ok {
		return nil, nil, false
	}
	return idx, dist, true
}

// ClassifyBatchInto classifies every point against this snapshot's
// centroids into the caller's idx and dist, grown only when their
// capacity is short, and returns them resliced to len(points): point i's
// cluster index lands in idx[i] and its Euclidean distance in dist[i].
// The centroid index is built at publication time, so the batch is pure
// searching, fanned across at most workers goroutines (≤ 1 runs inline);
// outputs are per-point, so the result is identical to calling Classify
// in a loop for every worker count. A nil receiver or a snapshot without
// centroids reports ok = false with idx and dist emptied. For snapshots
// built without a packed index a temporary finder is built for the
// batch; it returns kmeans.NearestBrute's answer, lowest-index ties
// included, as Classify does.
func (s *Snapshot) ClassifyBatchInto(points []vec.Vector, idx []int, dist []float64, workers int) ([]int, []float64, bool) {
	if s == nil || len(s.Centroids) == 0 {
		return idx[:0], dist[:0], false
	}
	f := s.finder
	if f == nil {
		f = kmeans.NewFinder(s.Centroids)
	}
	n := len(points)
	if cap(idx) < n {
		idx = make([]int, n)
	}
	if cap(dist) < n {
		dist = make([]float64, n)
	}
	idx, dist = idx[:n], dist[:n]
	f.NearestBatch(points, idx, dist, workers)
	for i := range dist {
		dist[i] = math.Sqrt(dist[i])
	}
	return idx, dist, true
}
