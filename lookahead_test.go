package birch

import (
	"fmt"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// TestClusterDimensionErrorAtAnyPosition pins the errors a malformed
// point produces at every position relative to the Phase 1 scan's
// look-ahead groups (vec.LookAheadGroup = G): an empty or a short point
// at i ∈ {1, G−1, G, G+1, 2G, n−1} must make Cluster and ClusterParallel
// return the point-dimension error of a plain Add loop — never panic in
// the look-ahead loads and never report a different point.
func TestClusterDimensionErrorAtAnyPosition(t *testing.T) {
	const dim, g = 3, vec.LookAheadGroup
	n := 3*g + 5
	r := rand.New(rand.NewSource(9))
	base := make([]Point, n)
	for i := range base {
		p := make(Point, dim)
		for j := range p {
			p[j] = r.NormFloat64() + float64(i%4)*10
		}
		base[i] = p
	}
	cfg := DefaultConfig(dim, 3)
	const workers = 2
	for _, bad := range []Point{{}, {1.5, -2}} {
		for _, i := range []int{1, g - 1, g, g + 1, 2 * g, n - 1} {
			pts := append([]Point(nil), base...)
			pts[i] = bad
			want := fmt.Sprintf("core: point dimension %d, config dimension %d", len(bad), dim)

			if _, err := Cluster(pts, cfg); err == nil || err.Error() != want {
				t.Fatalf("Cluster, %d-component point at %d: error %v, want %q", len(bad), i, err, want)
			}

			// RunParallel gives shard w the points [n·w/W, n·(w+1)/W).
			shard := 0
			for i >= n*(shard+1)/workers {
				shard++
			}
			wantPar := fmt.Sprintf("core: parallel shard %d: %s", shard, want)
			if _, err := ClusterParallel(pts, cfg, workers); err == nil || err.Error() != wantPar {
				t.Fatalf("ClusterParallel, %d-component point at %d: error %v, want %q", len(bad), i, err, wantPar)
			}
		}
	}
}
