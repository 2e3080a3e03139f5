package kmeans

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFinderModes locates the fused-vs-kd crossover behind
// FusedKDThreshold: per-query cost of each search implementation across
// centroid counts and dimensions, on clustered queries (points near the
// centroids, the serving-path regime). K = 100 at d = 2 and d = 16 is
// the centroid count of perfbench's paper_table4 and scale_d16.
func BenchmarkFinderModes(b *testing.B) {
	for _, dim := range []int{2, 8, 16} {
		for _, k := range []int{8, 16, 24, 32, 48, 64, 100, 128} {
			r := rand.New(rand.NewSource(int64(dim*1000 + k)))
			centroids := randCentroids(r, k, dim)
			queries := make([][]float64, 1024)
			for i := range queries {
				c := centroids[i%k]
				q := make([]float64, dim)
				for j := range q {
					q[j] = c[j] + r.NormFloat64()*0.3
				}
				queries[i] = q
			}
			for _, m := range []struct {
				name string
				mode FinderMode
			}{{"fused", FinderFused}, {"kd", FinderKD}, {"brute", FinderBrute}} {
				f := NewFinderMode(centroids, m.mode)
				b.Run(fmt.Sprintf("d%d/k%d/%s", dim, k, m.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						f.Nearest(queries[i%len(queries)])
					}
				})
			}
		}
	}
}
