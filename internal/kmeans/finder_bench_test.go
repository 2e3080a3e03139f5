package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"birch/internal/cf"
	"birch/internal/vec"
)

// BenchmarkFinder times the certified search — Finder.Nearest one query
// at a time, and NearestBatch on one worker, which runs under the guard —
// against the fused scan it falls back to (cf.ScanNearestX0) and the
// brute loop it reproduces, on synthetic multi-scale centroids. Two query
// regimes: "near" draws each query at σ = 0.3 around a centroid (the
// serving and Phase 4 regime), "uniform" over the centroids' bounding
// box (where certificates mostly fail). Sub-benchmark names are
// <regime>/d<dim>/k<K>.
//
// The host is noisy, so each b.N iteration is one round that runs all
// four paths over the same 4096 queries back to back; the reported
// metrics are per-query nanoseconds (the median over rounds) and the
// median over rounds of each round's nearest/fused and batch/fused
// ratios, which cancels drift between the paths.
func BenchmarkFinder(b *testing.B) {
	for _, regime := range []string{"near", "uniform"} {
		for _, dim := range []int{2, 8, 16, 64} {
			for _, k := range []int{4, 16, 32, 100, 250} {
				r := rand.New(rand.NewSource(int64(dim*1000 + k)))
				centroids := randCentroids(r, k, dim)
				queries := benchQueries(r, centroids, regime, 4096)
				f := NewFinder(centroids)
				blk := cf.NewCentroidBlock(dim, k)
				for _, c := range centroids {
					blk.AppendPoint(c)
				}
				idx := make([]int, len(queries))
				d2 := make([]float64, len(queries))
				paths := []func(){
					func() {
						for _, q := range queries {
							NearestBrute(centroids, q)
						}
					},
					func() {
						for _, q := range queries {
							cf.ScanNearestX0(q, blk)
						}
					},
					func() {
						for _, q := range queries {
							f.Nearest(q)
						}
					},
					func() { f.NearestBatch(queries, idx, d2, 1) },
				}
				b.Run(fmt.Sprintf("%s/d%d/k%d", regime, dim, k), func(b *testing.B) {
					perQuery := make([][]float64, len(paths))
					var nearestRatio, batchRatio []float64
					for i := 0; i < b.N; i++ {
						round := make([]float64, len(paths))
						for p, run := range paths {
							start := time.Now()
							run()
							round[p] = float64(time.Since(start).Nanoseconds()) / float64(len(queries))
							perQuery[p] = append(perQuery[p], round[p])
						}
						nearestRatio = append(nearestRatio, round[2]/round[1])
						batchRatio = append(batchRatio, round[3]/round[1])
					}
					for p, name := range []string{"brute", "fused", "nearest", "batch"} {
						b.ReportMetric(median(perQuery[p]), name+"-ns/q")
					}
					b.ReportMetric(median(nearestRatio), "nearest/fused")
					b.ReportMetric(median(batchRatio), "batch/fused")
				})
			}
		}
	}
}

// median returns the median of xs, reordering them.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// benchQueries draws n queries against the centroids: at σ = 0.3 around
// a centroid ("near") or uniform over their bounding box ("uniform").
func benchQueries(r *rand.Rand, centroids []vec.Vector, regime string, n int) []vec.Vector {
	dim := centroids[0].Dim()
	lo, hi := centroids[0].Clone(), centroids[0].Clone()
	for _, c := range centroids {
		for j, v := range c {
			lo[j], hi[j] = math.Min(lo[j], v), math.Max(hi[j], v)
		}
	}
	queries := make([]vec.Vector, n)
	for i := range queries {
		q := vec.New(dim)
		c := centroids[i%len(centroids)]
		for j := range q {
			if regime == "near" {
				q[j] = c[j] + r.NormFloat64()*0.3
			} else {
				q[j] = lo[j] + (hi[j]-lo[j])*r.Float64()
			}
		}
		queries[i] = q
	}
	return queries
}

// BenchmarkFinderReset times re-pointing a finder at a centroid set of
// unchanged shape: the O(K²·d) pair distances, the neighbour lists and
// the k-d rebuild. Phase 3 k-means pays it once per Lloyd iteration, a
// snapshot once per publication.
func BenchmarkFinderReset(b *testing.B) {
	for _, dim := range []int{2, 16} {
		for _, k := range []int{32, 100, 250} {
			r := rand.New(rand.NewSource(int64(dim*1000 + k)))
			centroids := randCentroids(r, k, dim)
			f := NewFinder(centroids)
			b.Run(fmt.Sprintf("d%d/k%d", dim, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f.Reset(centroids)
				}
			})
		}
	}
}
