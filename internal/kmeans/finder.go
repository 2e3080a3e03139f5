package kmeans

import (
	"sync"
	"sync/atomic"

	"birch/internal/cf"
	"birch/internal/kdtree"
	"birch/internal/vec"
)

// FinderMode selects the nearest-centroid search implementation a Finder
// uses. All modes minimize the same quantity — vec.SqDist to each
// centroid — and return bit-identical squared distances; only the index
// can differ, and only between exactly equidistant centroids (the k-d
// tree's visit order breaks ties differently from a low-index-first
// scan).
type FinderMode int

const (
	// FinderAuto picks FinderFused below FusedKDThreshold centroids and
	// FinderKD at or above it — the measured crossover (BENCH_tail.json).
	FinderAuto FinderMode = iota
	// FinderBrute is the reference O(K) vec.SqDist loop.
	FinderBrute
	// FinderFused walks a packed cf.Block centroid slab with the fused
	// flat-scan kernel (cf.ScanNearestX0): zero calls per candidate, one
	// contiguous stream, bit-identical to FinderBrute including ties.
	FinderFused
	// FinderKD searches an exact k-d tree: O(log K)-ish per query in low
	// dimension, same distances, tie indexes may differ.
	FinderKD
)

// FusedKDThreshold is the centroid count at which FinderAuto switches
// from the fused flat scan to the k-d tree. Chosen by measurement
// (BenchmarkFinderModes and the tail benchmark, BENCH_tail.json): the
// contiguous O(K) slab scan wins outright through K≈32 in every measured
// regime; above ≈48 the winner depends on the data — the k-d tree for
// well-separated low-dimensional centroids (it prunes to a few leaves),
// the slab for overlapping or higher-dimensional ones (pruning decays
// toward an O(K) walk with pointer chasing). 48 splits the regimes; see
// DESIGN.md §11 for both crossover tables.
const FusedKDThreshold = 48

// Finder locates the nearest centroid among a fixed set. Construction
// packs the centroids once (into a scan block or a k-d tree), so the
// per-query cost is pure search — the shape the serving path
// (Result.Classify/ClassifyBatch) and the assignment inner loops want.
// A Finder is safe for concurrent Nearest calls once built; Reset must
// not race with queries.
type Finder struct {
	mode      FinderMode // resolved; never FinderAuto
	centroids []vec.Vector
	block     *cf.Block
	kd        *kdtree.Tree
}

// NewFinder builds a Finder over centroids with the measured-crossover
// automatic mode. The slice is referenced, not copied; callers must not
// mutate the centroids while querying.
func NewFinder(centroids []vec.Vector) *Finder {
	return NewFinderMode(centroids, FinderAuto)
}

// NewFinderMode builds a Finder with an explicit search implementation —
// the benchmark and differential-test entry point.
func NewFinderMode(centroids []vec.Vector, mode FinderMode) *Finder {
	f := &Finder{}
	f.Reset(centroids, mode)
	return f
}

// Reset re-points the finder at a new centroid set, reusing the packed
// block in place when the dimension allows — re-packing K moving
// centroids between Lloyd iterations or refinement passes then performs
// zero heap allocations. (The k-d tree mode rebuilds its arena; moving
// centroids are exactly the regime where the fused mode wins anyway.)
//
//birchlint:coldpath
func (f *Finder) Reset(centroids []vec.Vector, mode FinderMode) {
	if len(centroids) == 0 {
		panic("kmeans: Finder with no centroids")
	}
	if mode == FinderAuto {
		if len(centroids) >= FusedKDThreshold {
			mode = FinderKD
		} else {
			mode = FinderFused
		}
	}
	f.mode = mode
	f.centroids = centroids
	f.kd = nil
	switch mode {
	case FinderFused:
		dim := centroids[0].Dim()
		if f.block == nil || f.block.Dim() != dim {
			f.block = cf.NewBlock(dim, len(centroids))
		} else {
			f.block.Truncate(0)
		}
		for _, c := range centroids {
			f.block.AppendPoint(c)
		}
	case FinderKD:
		f.kd = kdtree.Build(centroids)
	}
}

// K returns the number of centroids indexed.
func (f *Finder) K() int { return len(f.centroids) }

// Mode returns the resolved search implementation.
func (f *Finder) Mode() FinderMode { return f.mode }

// Nearest returns the index of the centroid closest to p and the squared
// Euclidean distance to it.
//
//birchlint:hotpath
func (f *Finder) Nearest(p vec.Vector) (int, float64) {
	switch f.mode {
	case FinderFused:
		return cf.ScanNearestX0(p, f.block)
	case FinderKD:
		return f.kd.Nearest(p)
	default:
		return NearestBrute(f.centroids, p)
	}
}

// NearestBrute is the reference nearest-centroid loop: the index of the
// centroid closest to p and the squared Euclidean distance to it, by
// vec.SqDist over every centroid in order. The first centroid seeds the
// minimum and a later one replaces it only when strictly closer, the
// fused scan's rule (cf.ScanNearestX0): ties keep the lowest index, and
// when every distance is +Inf or NaN the answer is centroid 0 with its
// distance, never "no centroid". centroids must be non-empty.
//
//birchlint:hotpath
func NearestBrute(centroids []vec.Vector, p vec.Vector) (int, float64) {
	best, bestD := 0, vec.SqDist(p, centroids[0])
	for c := 1; c < len(centroids); c++ {
		if d := vec.SqDist(p, centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// NearestBatch fills idx[i], sqDist[i] with the nearest centroid of
// points[i] and the squared distance to it, fanning the scan out across
// at most workers goroutines. Outputs are per-point with no cross-point
// reduction, so the result is identical for every worker count. idx and
// sqDist must be at least len(points) long.
func (f *Finder) NearestBatch(points []vec.Vector, idx []int, sqDist []float64, workers int) {
	forChunks(len(points), assignChunk, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			idx[i], sqDist[i] = f.Nearest(points[i])
		}
	})
}

// forChunks invokes fn(chunk, lo, hi) for every fixed-width chunk of n
// items, fanning the chunks out across at most workers goroutines via a
// shared work-stealing counter. The chunk grid depends only on n and
// chunkSize — never on workers — which is what lets chunk-indexed
// reductions stay bit-identical for every worker count. With one worker
// (or one chunk) the chunks run inline on the calling goroutine, in
// order, with no goroutine or closure overhead beyond fn itself.
func forChunks(n, chunkSize, workers int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := (n + chunkSize - 1) / chunkSize
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			lo := c * chunkSize
			fn(c, lo, min(lo+chunkSize, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * chunkSize
				fn(c, lo, min(lo+chunkSize, n))
			}
		}()
	}
	wg.Wait()
}
