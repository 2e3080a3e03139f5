package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"birch/internal/cf"
	"birch/internal/vec"
)

// tailWorkerCounts is the worker grid every determinism test sweeps.
var tailWorkerCounts = []int{1, 2, 4, 8}

func randPoints(r *rand.Rand, n, dim int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(dim)
		scale := math.Pow(10, float64(r.Intn(5)-2))
		for j := range p {
			p[j] = (r.Float64() - 0.5) * scale
		}
		pts[i] = p
	}
	return pts
}

func randCentroids(r *rand.Rand, k, dim int) []vec.Vector {
	return randPoints(r, k, dim)
}

// requireCFsBitEqual fails unless the two CF slices carry bit-identical
// N, LS and SS.
func requireCFsBitEqual(t *testing.T, ctx string, got, want []cf.CF) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].N != want[i].N {
			t.Fatalf("%s: cluster %d N=%d, want %d", ctx, i, got[i].N, want[i].N)
		}
		if math.Float64bits(got[i].SS) != math.Float64bits(want[i].SS) {
			t.Fatalf("%s: cluster %d SS bits differ: %x vs %x",
				ctx, i, math.Float64bits(got[i].SS), math.Float64bits(want[i].SS))
		}
		for j := range got[i].LS {
			if math.Float64bits(got[i].LS[j]) != math.Float64bits(want[i].LS[j]) {
				t.Fatalf("%s: cluster %d LS[%d] bits differ: %x vs %x", ctx, i, j,
					math.Float64bits(got[i].LS[j]), math.Float64bits(want[i].LS[j]))
			}
		}
	}
}

// TestAssignWorkersBitExact is the tentpole determinism property: the
// chunked Phase 4 assignment produces bit-identical labels and
// per-cluster CF sums for every worker count, across dimensions and
// centroid counts, with and without discarding.
func TestAssignWorkersBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n = 5000 // three chunks at assignChunk=2048
	for _, dim := range []int{2, 3, 7} {
		for _, k := range []int{5, 40, 150} {
			for _, discard := range []float64{0, 1.5} {
				points := randPoints(r, n, dim)
				centroids := randCentroids(r, k, dim)

				var ref Assigner
				wantLabels, wantSums := ref.Assign(points, centroids, discard, 1)
				wantCopy := make([]int, n)
				copy(wantCopy, wantLabels)
				sumsCopy := make([]cf.CF, len(wantSums))
				for i := range wantSums {
					sumsCopy[i] = wantSums[i].Clone()
				}

				for _, w := range tailWorkerCounts[1:] {
					var a Assigner
					labels, sums := a.Assign(points, centroids, discard, w)
					for i := range labels {
						if labels[i] != wantCopy[i] {
							t.Fatalf("dim=%d k=%d discard=%g W=%d: label[%d]=%d, want %d",
								dim, k, discard, w, i, labels[i], wantCopy[i])
						}
					}
					ctx := "dim/k/W sums"
					requireCFsBitEqual(t, ctx, sums, sumsCopy)
				}
			}
		}
	}
}

// TestAssignMatchesReferenceSingleChunk pins backward compatibility: for
// inputs at or below one chunk, the new assignment equals the
// pre-parallel implementation (the brute loop per point) exactly —
// labels and summary bits — with and without full neighbour lists.
func TestAssignMatchesReferenceSingleChunk(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, dim := range []int{2, 5} {
		for _, discard := range []float64{0, 1.0} {
			points := randPoints(r, 1500, dim)
			centroids := randCentroids(r, 12+88*r.Intn(2), dim)
			wantLabels, wantSums := AssignPointsReference(points, centroids, discard)
			gotLabels, gotSums := AssignPoints(points, centroids, discard)
			for i := range wantLabels {
				if gotLabels[i] != wantLabels[i] {
					t.Fatalf("dim=%d discard=%g: label[%d]=%d, reference %d",
						dim, discard, i, gotLabels[i], wantLabels[i])
				}
			}
			requireCFsBitEqual(t, "reference sums", gotSums, wantSums)
		}
	}
}

// TestClusterWorkersBitExact sweeps the worker grid over the full Lloyd
// loop: centroids, assignments, cluster CFs, SSE and the iteration count
// must be bit-identical to the sequential run.
func TestClusterWorkersBitExact(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, dim := range []int{2, 3, 6} {
		items := make([]cf.CF, 5000)
		for i := range items {
			p := vec.New(dim)
			for j := range p {
				p[j] = r.NormFloat64()*2 + float64(i%5)*10
			}
			c := cf.FromPoint(p)
			// Mix in weighted items so the weighted accumulation path is
			// exercised, not just unit weights.
			if i%3 == 0 {
				c.AddPoint(p)
			}
			items[i] = c
		}
		want, err := Cluster(items, Options{K: 8, Seed: 9, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range tailWorkerCounts[1:] {
			got, err := Cluster(items, Options{K: 8, Seed: 9, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != want.Iterations {
				t.Fatalf("dim=%d W=%d: %d iterations, want %d", dim, w, got.Iterations, want.Iterations)
			}
			if math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
				t.Fatalf("dim=%d W=%d: SSE bits differ: %x vs %x",
					dim, w, math.Float64bits(got.SSE), math.Float64bits(want.SSE))
			}
			for i := range want.Assignments {
				if got.Assignments[i] != want.Assignments[i] {
					t.Fatalf("dim=%d W=%d: assignment[%d]=%d, want %d",
						dim, w, i, got.Assignments[i], want.Assignments[i])
				}
			}
			for c := range want.Centroids {
				for j := range want.Centroids[c] {
					if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(want.Centroids[c][j]) {
						t.Fatalf("dim=%d W=%d: centroid %d[%d] bits differ", dim, w, c, j)
					}
				}
			}
			requireCFsBitEqual(t, "cluster CFs", got.Clusters, want.Clusters)
		}
	}
}

// TestAssignSteadyStateAllocs gates the multi-pass refinement contract:
// once an Assigner has served one pass, subsequent same-shape passes
// allocate nothing — labels, per-cluster sums, chunk partials and the
// finder (slab, k-d arena, neighbour lists) are all reused, at K = 32
// and at K = 100. Static half:
// Assign and assignChunk carry //birchlint:hotpath (assign.go), so the
// hotpath pass rejects allocating constructs before this gate ever runs.
func TestAssignSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	const dim, n = 8, 4096
	for _, k := range []int{32, 100} {
		points := randPoints(r, n, dim)
		centroids := randCentroids(r, k, dim)
		var a Assigner
		a.Assign(points, centroids, 0, 1) // size the buffers
		allocs := testing.AllocsPerRun(20, func() {
			a.Assign(points, centroids, 0, 1)
		})
		if allocs != 0 {
			t.Fatalf("k=%d: steady-state Assign allocates %.1f times per pass, want 0", k, allocs)
		}
	}
}

// TestNearestBatchMatchesNearest checks the batch fan-out against the
// scalar loop for several worker counts.
func TestNearestBatchMatchesNearest(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	const dim, k, n = 4, 50, 5000
	points := randPoints(r, n, dim)
	f := NewFinder(randCentroids(r, k, dim))
	idx := make([]int, n)
	d2 := make([]float64, n)
	for _, w := range tailWorkerCounts {
		f.NearestBatch(points, idx, d2, w)
		for i, p := range points {
			wi, wd := f.Nearest(p)
			if idx[i] != wi || math.Float64bits(d2[i]) != math.Float64bits(wd) {
				t.Fatalf("W=%d: batch[%d]=(%d,%x), scalar (%d,%x)",
					w, i, idx[i], math.Float64bits(d2[i]), wi, math.Float64bits(wd))
			}
		}
	}
}
