package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"birch/internal/cf"
	"birch/internal/vec"
)

func blob(r *rand.Rand, n int, cx, cy, sd float64) []cf.CF {
	out := make([]cf.CF, n)
	for i := range out {
		out[i] = cf.FromPoint(vec.Of(cx+r.NormFloat64()*sd, cy+r.NormFloat64()*sd))
	}
	return out
}

func TestValidation(t *testing.T) {
	item := cf.FromPoint(vec.Of(1))
	if _, err := Cluster(nil, Options{K: 1}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Cluster([]cf.CF{item}, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	empty := cf.New(1)
	if _, err := Cluster([]cf.CF{empty}, Options{K: 1}); err == nil {
		t.Error("empty item accepted")
	}
	if _, err := Cluster([]cf.CF{item}, Options{K: 1,
		InitialCentroids: []vec.Vector{vec.Of(1), vec.Of(2)}}); err == nil {
		t.Error("mismatched initial centroid count accepted")
	}
	if _, err := Cluster([]cf.CF{item}, Options{K: 1,
		InitialCentroids: []vec.Vector{vec.Of(1, 2)}}); err == nil {
		t.Error("mismatched initial centroid dim accepted")
	}
}

func TestTwoBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	items := append(blob(r, 30, 0, 0, 0.5), blob(r, 30, 100, 100, 0.5)...)
	res, err := Cluster(items, Options{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Assignments[0]
	for i := 0; i < 30; i++ {
		if res.Assignments[i] != first {
			t.Fatalf("blob 1 split at %d", i)
		}
	}
	for i := 30; i < 60; i++ {
		if res.Assignments[i] == first {
			t.Fatalf("blobs merged at %d", i)
		}
	}
	// Centers near the blob centers.
	for _, c := range res.Centroids {
		near0 := vec.Dist(c, vec.Of(0, 0)) < 2
		near100 := vec.Dist(c, vec.Of(100, 100)) < 2
		if !near0 && !near100 {
			t.Fatalf("stray centroid %v", c)
		}
	}
}

func TestWeightsDominateCentroid(t *testing.T) {
	// One huge subcluster at x=0 and one singleton at x=10, K=1: the
	// weighted mean must sit near 0, not at 5.
	var heavy cf.CF
	heavy.AddWeightedPoint(vec.Of(0.0), 999)
	items := []cf.CF{heavy, cf.FromPoint(vec.Of(10.0))}
	res, err := Cluster(items, Options{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Centroids[0][0]; math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("weighted centroid = %g, want 0.01", got)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	items := append(blob(r, 40, 0, 0, 1), blob(r, 40, 20, 20, 1)...)
	a, err := Cluster(items, Options{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(items, Options{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
	if a.SSE != b.SSE {
		t.Fatal("same seed produced different SSE")
	}
}

func TestInitialCentroidsRespected(t *testing.T) {
	items := []cf.CF{
		cf.FromPoint(vec.Of(0.0)), cf.FromPoint(vec.Of(1.0)),
		cf.FromPoint(vec.Of(10.0)), cf.FromPoint(vec.Of(11.0)),
	}
	res, err := Cluster(items, Options{
		K:                2,
		InitialCentroids: []vec.Vector{vec.Of(0.5), vec.Of(10.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0] != res.Assignments[1] || res.Assignments[2] != res.Assignments[3] ||
		res.Assignments[0] == res.Assignments[2] {
		t.Fatalf("assignments = %v", res.Assignments)
	}
	if math.Abs(res.Centroids[0][0]-0.5) > 1e-12 || math.Abs(res.Centroids[1][0]-10.5) > 1e-12 {
		t.Fatalf("centroids = %v", res.Centroids)
	}
}

func TestKClampedToItems(t *testing.T) {
	items := []cf.CF{cf.FromPoint(vec.Of(1.0)), cf.FromPoint(vec.Of(2.0))}
	res, err := Cluster(items, Options{K: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids = %d, want clamped 2", len(res.Centroids))
	}
}

func TestSSEDecreasesVsSingleCluster(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	items := append(blob(r, 25, 0, 0, 0.5), blob(r, 25, 50, 50, 0.5)...)
	one, err := Cluster(items, Options{K: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Cluster(items, Options{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if two.SSE >= one.SSE {
		t.Fatalf("K=2 SSE %g not below K=1 SSE %g", two.SSE, one.SSE)
	}
}

func TestAssignPoints(t *testing.T) {
	pts := []vec.Vector{vec.Of(0, 0), vec.Of(0.1, 0), vec.Of(10, 10)}
	cents := []vec.Vector{vec.Of(0, 0), vec.Of(10, 10)}
	labels, sums := AssignPoints(pts, cents, 0)
	if labels[0] != 0 || labels[1] != 0 || labels[2] != 1 {
		t.Fatalf("labels = %v", labels)
	}
	if sums[0].N != 2 || sums[1].N != 1 {
		t.Fatalf("sums = %v / %v", sums[0].String(), sums[1].String())
	}
}

func TestAssignPointsDiscardsOutliers(t *testing.T) {
	pts := []vec.Vector{vec.Of(0, 0), vec.Of(100, 100)}
	cents := []vec.Vector{vec.Of(0, 0)}
	labels, sums := AssignPoints(pts, cents, 5)
	if labels[0] != 0 || labels[1] != -1 {
		t.Fatalf("labels = %v", labels)
	}
	if sums[0].N != 1 {
		t.Fatalf("outlier included in summary: N=%d", sums[0].N)
	}
}

func TestAssignPointsNoCentroidsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no centroids did not panic")
		}
	}()
	AssignPoints([]vec.Vector{vec.Of(1)}, nil, 0)
}

func TestQuickPartitionConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(60)
		k := 1 + r.Intn(6)
		items := make([]cf.CF, n)
		for i := range items {
			items[i] = cf.FromPoint(vec.Of(r.Float64()*50, r.Float64()*50))
		}
		res, err := Cluster(items, Options{K: k, Seed: seed})
		if err != nil {
			return false
		}
		kk := len(res.Centroids)
		var total int64
		for i, a := range res.Assignments {
			if a < 0 || a >= kk {
				return false
			}
			_ = i
		}
		for c := range res.Clusters {
			total += res.Clusters[c].N
		}
		return total == int64(n) && res.SSE >= 0
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkCluster1000K10(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := make([]cf.CF, 1000)
	for i := range items {
		items[i] = cf.FromPoint(vec.Of(r.Float64()*100, r.Float64()*100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(items, Options{K: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAssignPointsKdTreeMatchesBrute forces both paths over the same data
// and verifies identical assignment distances (labels can differ only on
// exact ties, which continuous random data never produces).
func TestAssignPointsKdTreeMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	points := make([]vec.Vector, 2000)
	for i := range points {
		points[i] = vec.Of(r.Float64()*100, r.Float64()*100)
	}
	// 30 centroids: above the kd-tree threshold.
	centroids := make([]vec.Vector, 30)
	for i := range centroids {
		centroids[i] = vec.Of(r.Float64()*100, r.Float64()*100)
	}
	kdLabels, kdSums := AssignPoints(points, centroids, 0)

	for i, p := range points {
		want, wantD := NearestBrute(centroids, p)
		if kdLabels[i] != want {
			gotD := vec.SqDist(p, centroids[kdLabels[i]])
			if gotD != wantD {
				t.Fatalf("point %d: kd label %d (d=%g) vs brute %d (d=%g)",
					i, kdLabels[i], gotD, want, wantD)
			}
		}
	}
	var total int64
	for c := range kdSums {
		total += kdSums[c].N
	}
	if total != int64(len(points)) {
		t.Fatalf("kd sums carry %d points", total)
	}
}

func TestAssignPointsKdTreeDiscard(t *testing.T) {
	// Over-threshold centroid count with a discard radius.
	centroids := make([]vec.Vector, 30)
	for i := range centroids {
		centroids[i] = vec.Of(float64(i)*10, 0)
	}
	points := []vec.Vector{vec.Of(0, 0), vec.Of(150, 1000)}
	labels, _ := AssignPoints(points, centroids, 5)
	if labels[0] != 0 || labels[1] != -1 {
		t.Fatalf("labels = %v", labels)
	}
}

// TestEmptyClusterRepair forces Lloyd's empty-cluster path: start one
// centroid so far away that it captures nothing, and verify the repair
// re-seeds it instead of leaving a dead center.
func TestEmptyClusterRepair(t *testing.T) {
	items := []cf.CF{
		cf.FromPoint(vec.Of(0.0, 0.0)),
		cf.FromPoint(vec.Of(1.0, 0.0)),
		cf.FromPoint(vec.Of(100.0, 0.0)),
	}
	res, err := Cluster(items, Options{
		K: 2,
		InitialCentroids: []vec.Vector{
			vec.Of(0.5, 0.0),
			vec.Of(1e9, 1e9), // captures nothing on pass 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := range res.Clusters {
		if res.Clusters[c].N == 0 {
			t.Fatalf("cluster %d left empty", c)
		}
	}
}
