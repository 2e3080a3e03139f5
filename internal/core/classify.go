package core

import (
	"math"

	"birch/internal/kmeans"
	"birch/internal/vec"
)

// finder lazily builds (once) and returns the nearest-centroid index over
// the result's centroids (kmeans.Finder: a certified search that returns
// the brute loop's answer). Centroids of a finished Result never move,
// so the index is built at most once per Result and amortized across
// every Classify/ClassifyBatch call.
func (r *Result) finder() *kmeans.Finder {
	r.classifyOnce.Do(func() {
		r.classifyFinder = kmeans.NewFinder(r.Centroids)
	})
	return r.classifyFinder
}

// Classify assigns a new point to the result's nearest cluster and
// returns the cluster index plus the Euclidean distance to its centroid.
// It is the natural "predict" operation over a finished clustering —
// exactly what the paper's Phase 4 does per point, exposed for new data.
// It panics if the result has no clusters. Safe for concurrent use.
func (r *Result) Classify(p vec.Vector) (int, float64) {
	if len(r.Centroids) == 0 {
		panic("core: Classify on a result with no clusters")
	}
	best, bestD := r.finder().Nearest(p)
	return best, math.Sqrt(bestD)
}

// ClassifyBatch classifies many points in one call, returning the
// cluster index and Euclidean centroid distance per point. The
// nearest-centroid index is built once for the whole batch and the scan
// fans out across at most workers goroutines (≤ 1 runs inline); outputs
// are per-point, so the result is identical to calling Classify in a
// loop for every worker count. It panics if the result has no clusters.
func (r *Result) ClassifyBatch(points []vec.Vector, workers int) ([]int, []float64) {
	if len(r.Centroids) == 0 {
		panic("core: ClassifyBatch on a result with no clusters")
	}
	idx := make([]int, len(points))
	dist := make([]float64, len(points))
	r.finder().NearestBatch(points, idx, dist, workers)
	for i := range dist {
		dist[i] = math.Sqrt(dist[i])
	}
	return idx, dist
}

// ClassifySparse assigns a sparse point to the result's nearest cluster —
// contractually identical to Classify(densify(sp)), which is exactly how
// it is computed: the nearest-centroid metric is Euclidean, whose
// difference-based terms do not admit a bit-identical gather (see
// internal/cf/sparse.go), so the point is densified into a per-call
// scratch (one allocation; Classify stays safe for concurrent use).
func (r *Result) ClassifySparse(sp vec.Sparse) (int, float64) {
	return r.Classify(sp.Dense())
}

// ClassifySparseBatch classifies many sparse points in one call,
// identical to ClassifyBatch over their densifications. The batch is
// densified into a single backing array (vec.DenseBatch); all points
// must share the result's dimensionality.
func (r *Result) ClassifySparseBatch(points []vec.Sparse, workers int) ([]int, []float64) {
	return r.ClassifyBatch(vec.DenseBatch(points), workers)
}

// IsOutlier reports whether a new point would be treated as an outlier
// under the given discard factor: its distance to the nearest centroid
// exceeds factor × that cluster's radius. A zero radius cluster (a
// singleton) treats any non-coincident point as an outlier.
func (r *Result) IsOutlier(p vec.Vector, factor float64) bool {
	c, d := r.Classify(p)
	return d > factor*r.Clusters[c].Radius()
}
