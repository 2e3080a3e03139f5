package hc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"birch/internal/cf"
	"birch/internal/vec"
)

// blob builds n CF points normally scattered around (cx, cy).
func blob(r *rand.Rand, n int, cx, cy, sd float64) []cf.CF {
	out := make([]cf.CF, n)
	for i := range out {
		out[i] = cf.FromPoint(vec.Of(cx+r.NormFloat64()*sd, cy+r.NormFloat64()*sd))
	}
	return out
}

func TestClusterValidation(t *testing.T) {
	item := cf.FromPoint(vec.Of(1))
	if _, err := Cluster(nil, Options{K: 1, Metric: cf.D0}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Cluster([]cf.CF{item}, Options{K: -1, Metric: cf.D0}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := Cluster([]cf.CF{item}, Options{Metric: cf.D0}); err == nil {
		t.Error("no stopping rule accepted")
	}
	if _, err := Cluster([]cf.CF{item}, Options{K: 1, Metric: cf.Metric(9)}); err == nil {
		t.Error("bad metric accepted")
	}
	empty := cf.New(1)
	if _, err := Cluster([]cf.CF{empty}, Options{K: 1, Metric: cf.D0}); err == nil {
		t.Error("empty CF item accepted")
	}
}

// TestClusterRejectsMixedItems: an input mixing CF cores or dimensions
// is rejected with an error naming the first item that differs from
// item 0, before any distance is computed — never a panic, and never a
// kernel reading a shorter CF's components out of bounds.
func TestClusterRejectsMixedItems(t *testing.T) {
	classic2 := cf.FromPoint(vec.Of(1, 2))
	betula2 := cf.CoreFor(cf.CoreBETULA).FromPoint(vec.Of(1, 2))
	classic3 := cf.FromPoint(vec.Of(1, 2, 3))
	cases := []struct {
		name  string
		items []cf.CF
		want  string
	}{
		{"mixed kinds", []cf.CF{classic2, classic2.Clone(), betula2}, "hc: item 2 is a 2-d betula CF, item 0 a 2-d classic CF"},
		{"2-d then 3-d", []cf.CF{classic2, classic3, classic2.Clone()}, "hc: item 1 is a 3-d classic CF, item 0 a 2-d classic CF"},
		{"3-d then 2-d", []cf.CF{classic3, classic2}, "hc: item 1 is a 2-d classic CF, item 0 a 3-d classic CF"},
	}
	for _, tc := range cases {
		for _, m := range []cf.Metric{cf.D0, cf.D2, cf.DCos} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s %v: panic %v", tc.name, m, r)
					}
				}()
				res, err := Cluster(tc.items, Options{K: 1, Metric: m})
				if err == nil || err.Error() != tc.want {
					t.Fatalf("%s %v: got (%v, %v), want error %q", tc.name, m, res, err, tc.want)
				}
			}()
		}
	}
}

func TestTwoObviousClusters(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	items := append(blob(r, 20, 0, 0, 0.1), blob(r, 20, 100, 100, 0.1)...)
	res, err := Cluster(items, Options{K: 2, Metric: cf.D2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(res.Clusters))
	}
	// All of the first blob must share a label distinct from the second.
	first := res.Assignments[0]
	for i := 0; i < 20; i++ {
		if res.Assignments[i] != first {
			t.Fatalf("blob 1 split: item %d label %d", i, res.Assignments[i])
		}
	}
	for i := 20; i < 40; i++ {
		if res.Assignments[i] == first {
			t.Fatalf("blobs merged: item %d", i)
		}
	}
	// Cluster CFs carry the full weight.
	var total int64
	for i := range res.Clusters {
		total += res.Clusters[i].N
	}
	if total != 40 {
		t.Fatalf("total N = %d, want 40", total)
	}
}

func TestWeightedInputs(t *testing.T) {
	// A heavy subcluster (N=100) at x=0 and two singletons at x=10, 10.5.
	var heavy cf.CF
	heavy.AddWeightedPoint(vec.Of(0.0), 100)
	items := []cf.CF{heavy, cf.FromPoint(vec.Of(10.0)), cf.FromPoint(vec.Of(10.5))}
	res, err := Cluster(items, Options{K: 2, Metric: cf.D2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[1] != res.Assignments[2] || res.Assignments[0] == res.Assignments[1] {
		t.Fatalf("assignments = %v, want singletons together", res.Assignments)
	}
	// Centroid of the heavy cluster must stay at 0.
	for i := range res.Clusters {
		if res.Clusters[i].N == 100 {
			if c := res.Clusters[i].Centroid(); math.Abs(c[0]) > 1e-12 {
				t.Fatalf("heavy centroid moved to %v", c)
			}
		}
	}
}

func TestMaxDiameterStopsMerging(t *testing.T) {
	// Four points in two tight pairs far apart; a diameter bound between
	// pair width and cross-pair distance must yield exactly 2 clusters.
	items := []cf.CF{
		cf.FromPoint(vec.Of(0.0)), cf.FromPoint(vec.Of(1.0)),
		cf.FromPoint(vec.Of(100.0)), cf.FromPoint(vec.Of(101.0)),
	}
	res, err := Cluster(items, Options{MaxDiameter: 5, Metric: cf.D0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 under diameter bound", len(res.Clusters))
	}
	for i := range res.Clusters {
		if d := res.Clusters[i].Diameter(); d > 5 {
			t.Fatalf("cluster diameter %g exceeds bound", d)
		}
	}
}

func TestKOneMergesAll(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	items := blob(r, 30, 0, 0, 1)
	res, err := Cluster(items, Options{K: 1, Metric: cf.D4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || res.Clusters[0].N != 30 {
		t.Fatalf("K=1 result: %d clusters, N=%d", len(res.Clusters), res.Clusters[0].N)
	}
	if len(res.Dendrogram) != 29 {
		t.Fatalf("dendrogram has %d merges, want 29", len(res.Dendrogram))
	}
}

func TestKGreaterThanItems(t *testing.T) {
	items := []cf.CF{cf.FromPoint(vec.Of(1.0)), cf.FromPoint(vec.Of(2.0))}
	res, err := Cluster(items, Options{K: 5, Metric: cf.D0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want all 2 inputs unmerged", len(res.Clusters))
	}
}

func TestAllMetrics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := append(blob(r, 15, 0, 0, 0.2), blob(r, 15, 50, 50, 0.2)...)
	for _, m := range []cf.Metric{cf.D0, cf.D1, cf.D2, cf.D3, cf.D4} {
		res, err := Cluster(items, Options{K: 2, Metric: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.Clusters) != 2 {
			t.Fatalf("%v: %d clusters", m, len(res.Clusters))
		}
		if res.Clusters[0].N+res.Clusters[1].N != 30 {
			t.Fatalf("%v: weight lost", m)
		}
	}
}

// TestDendrogramRecordsMerges: merging 20 items down to 5 records one
// merge per step, each at a non-negative distance.
func TestDendrogramRecordsMerges(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	items := blob(r, 20, 0, 0, 1)
	res, err := Cluster(items, Options{K: 5, Metric: cf.D2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dendrogram) != 15 {
		t.Fatalf("merges = %d, want 15", len(res.Dendrogram))
	}
	for i, mg := range res.Dendrogram {
		if mg.Distance < 0 {
			t.Fatalf("merge %d has negative distance", i)
		}
	}
}

func TestQuickPartitionIsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(40)
		k := 1 + r.Intn(n)
		items := make([]cf.CF, n)
		for i := range items {
			items[i] = cf.FromPoint(vec.Of(r.Float64()*100, r.Float64()*100))
		}
		res, err := Cluster(items, Options{K: k, Metric: cf.Metric(r.Intn(5))})
		if err != nil {
			return false
		}
		if len(res.Clusters) != k {
			return false
		}
		// Every assignment is in range, every cluster is non-empty, and
		// cluster weights sum to the inputs'.
		seen := make([]int64, k)
		for i, a := range res.Assignments {
			if a < 0 || a >= k {
				return false
			}
			seen[a] += items[i].N
		}
		for c := range res.Clusters {
			if seen[c] != res.Clusters[c].N || seen[c] == 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkCluster500(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := make([]cf.CF, 500)
	for i := range items {
		items[i] = cf.FromPoint(vec.Of(r.Float64()*100, r.Float64()*100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(items, Options{K: 10, Metric: cf.D2}); err != nil {
			b.Fatal(err)
		}
	}
}
