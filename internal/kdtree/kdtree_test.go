package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

func randPoints(r *rand.Rand, n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = r.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// bruteNearest is the reference implementation.
func bruteNearest(points []vec.Vector, q vec.Vector) (int, float64) {
	best, bestD := 0, vec.SqDist(q, points[0])
	for i := 1; i < len(points); i++ {
		if d := vec.SqDist(q, points[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func TestBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty Build did not panic")
		}
	}()
	Build(nil)
}

func TestBuildMixedDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed dims did not panic")
		}
	}()
	Build([]vec.Vector{vec.Of(1), vec.Of(1, 2)})
}

func TestNearestSinglePoint(t *testing.T) {
	tr := Build([]vec.Vector{vec.Of(3, 4)})
	i, d := tr.NearestOnPath(vec.Of(0, 0))
	if i != 0 || d != 25 {
		t.Fatalf("NearestOnPath = %d, %g", i, d)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestNearestOnPathIsOnPath: the guess is the closest point on the
// greedy root-to-leaf path, its distance is vec.SqDist's bits for the
// index it names, and it is never closer than the brute-force nearest.
func TestNearestOnPathIsOnPath(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 10, 100, 500} {
			pts := randPoints(r, n, d)
			tr := Build(pts)
			for trial := 0; trial < 50; trial++ {
				q := randPoints(r, 1, d)[0]
				gi, gd := tr.NearestOnPath(q)
				if vec.SqDist(q, pts[gi]) != gd {
					t.Fatalf("returned distance inconsistent with returned index")
				}
				if _, bd := bruteNearest(pts, q); gd < bd {
					t.Fatalf("d=%d n=%d: guess %g closer than brute %g", d, n, gd, bd)
				}
				best, bestD := -1, 0.0
				for ni := tr.root; ni >= 0; {
					nd := &tr.nodes[ni]
					p := pts[nd.point]
					if dd := vec.SqDist(q, p); best < 0 || dd < bestD {
						best, bestD = int(nd.point), dd
					}
					if q[nd.axis] < p[nd.axis] {
						ni = nd.left
					} else {
						ni = nd.right
					}
				}
				if best != gi || bestD != gd {
					t.Fatalf("d=%d n=%d: guess (%d, %g), path minimum (%d, %g)", d, n, gi, gd, best, bestD)
				}
			}
		}
	}
}

func TestNearestOnIndexedPoints(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 200, 3)
	tr := Build(pts)
	for i, p := range pts {
		gi, gd := tr.NearestOnPath(p)
		if gd != 0 {
			t.Fatalf("point %d: distance to itself %g", i, gd)
		}
		if vec.SqDist(pts[gi], p) != 0 {
			t.Fatalf("point %d: returned non-coincident index", i)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []vec.Vector{vec.Of(1, 1), vec.Of(1, 1), vec.Of(1, 1), vec.Of(5, 5)}
	tr := Build(pts)
	i, d := tr.NearestOnPath(vec.Of(1.1, 1))
	if d > 0.011 || i == 3 {
		t.Fatalf("NearestOnPath among duplicates = %d, %g", i, d)
	}
}

func TestQueryDimMismatchPanics(t *testing.T) {
	tr := Build([]vec.Vector{vec.Of(1, 2)})
	defer func() {
		if recover() == nil {
			t.Fatal("query dim mismatch did not panic")
		}
	}()
	tr.NearestOnPath(vec.Of(1))
}

// TestResetReusesArena: rebuilding over as many points allocates
// nothing, and the rebuilt tree equals a fresh Build over the same
// points (non-finite coordinates included: the build stays well formed).
func TestResetReusesArena(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := randPoints(r, 100, 4), randPoints(r, 100, 4)
	b[7][2] = math.NaN()
	b[9][0] = math.Inf(-1)
	tr := Build(a)
	if allocs := testing.AllocsPerRun(20, func() { tr.Reset(b); tr.Reset(a) }); allocs != 0 {
		t.Fatalf("Reset at an unchanged size allocates %.1f times", allocs)
	}
	tr.Reset(b)
	fresh := Build(b)
	if tr.root != fresh.root || len(tr.nodes) != len(fresh.nodes) {
		t.Fatalf("reset tree shape differs from a fresh build")
	}
	for i := range tr.nodes {
		if tr.nodes[i] != fresh.nodes[i] {
			t.Fatalf("node %d: reset %+v, fresh %+v", i, tr.nodes[i], fresh.nodes[i])
		}
	}
}

func BenchmarkNearestOnPath250(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 250, 2)
	tr := Build(pts)
	queries := randPoints(r, 1024, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestOnPath(queries[i%len(queries)])
	}
}
