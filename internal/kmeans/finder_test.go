package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// The value regimes of the finder battery's centroid sets.
const (
	regimeMixed   = iota // per-point scales 10^-2..10^2: overlapping sets
	regimeBlobs          // tight, well-separated blobs: certificates close
	regimeLattice        // small integers: exact ties, duplicates, exact midpoints
	regimeTiny           // magnitude 1e-160: SqDist underflows to subnormals
	regimeHuge           // magnitude up to 1e154: SqDist overflows to +Inf
	numRegimes
)

// regimeValue draws one coordinate of the given regime; center is the
// blob center for regimeBlobs.
func regimeValue(r *rand.Rand, regime int, center float64) float64 {
	switch regime {
	case regimeMixed:
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(5)-2))
	case regimeBlobs:
		return center + r.NormFloat64()*0.05
	case regimeLattice:
		return float64(r.Intn(5))
	case regimeTiny:
		return (r.Float64() - 0.5) * 1e-160
	default:
		return (r.Float64() - 0.5) * math.Pow(10, 150+float64(r.Intn(5)))
	}
}

// finderSet draws k centroids of dimension dim in the regime.
func finderSet(r *rand.Rand, k, dim, regime int) []vec.Vector {
	centers := vec.New(dim)
	cs := make([]vec.Vector, k)
	for i := range cs {
		if i%3 == 0 {
			for j := range centers {
				centers[j] = float64(r.Intn(40))
			}
		}
		c := vec.New(dim)
		for j := range c {
			c[j] = regimeValue(r, regime, centers[j])
		}
		cs[i] = c
	}
	return cs
}

// finderQueries draws the battery's queries against cs: each sampled
// centroid itself, a point near it, and the componentwise midpoint of it
// and its brute-force nearest other centroid (exact for the lattice,
// where D(r,c) = 4·D(x,r) holds exactly); points uniform over the
// centroids' bounding box; and non-finite queries.
func finderQueries(r *rand.Rand, cs []vec.Vector) []vec.Vector {
	dim := cs[0].Dim()
	lo, hi := cs[0].Clone(), cs[0].Clone()
	for _, c := range cs {
		for j, v := range c {
			lo[j], hi[j] = math.Min(lo[j], v), math.Max(hi[j], v)
		}
	}
	var qs []vec.Vector
	for s := 0; s < min(len(cs), 12); s++ {
		i := r.Intn(len(cs))
		c := cs[i]
		qs = append(qs, c.Clone())
		near := c.Clone()
		for j := range near {
			near[j] += (hi[j] - lo[j] + math.Abs(c[j])) * r.NormFloat64() * 0.05
		}
		qs = append(qs, near)
		nn, nnD := -1, 0.0
		for j, o := range cs {
			if d := vec.SqDist(c, o); j != i && (nn < 0 || d < nnD) {
				nn, nnD = j, d
			}
		}
		if nn >= 0 {
			mid := vec.New(dim)
			for j := range mid {
				mid[j] = c[j]/2 + cs[nn][j]/2
			}
			qs = append(qs, mid)
		}
	}
	for s := 0; s < 8; s++ {
		u := vec.New(dim)
		for j := range u {
			u[j] = lo[j] + (hi[j]-lo[j])*r.Float64()
		}
		qs = append(qs, u)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := cs[r.Intn(len(cs))].Clone()
		q[r.Intn(dim)] = v
		qs = append(qs, q)
	}
	return qs
}

// plantDuplicates copies centroid j into a lower and a higher slot, so a
// query near it has three equidistant answers with the lowest index
// below the guess's and one above it.
func plantDuplicates(r *rand.Rand, cs []vec.Vector) []vec.Vector {
	if len(cs) < 3 {
		return cs
	}
	out := append([]vec.Vector(nil), cs...)
	j := 1 + r.Intn(len(cs)-2)
	out[r.Intn(j)] = cs[j].Clone()
	out[j+1+r.Intn(len(cs)-j-1)] = cs[j].Clone()
	return out
}

// checkFinder holds every search path — Finder.Nearest, NearestBatch at
// one and four workers, and Assigner.Assign's labels — to NearestBrute
// over the queries: the same index and the same distance bits.
func checkFinder(t testing.TB, label string, cs, qs []vec.Vector) {
	t.Helper()
	f := NewFinder(cs)
	n := len(qs)
	want := make([]int, n)
	wantD := make([]float64, n)
	for i, q := range qs {
		want[i], wantD[i] = NearestBrute(cs, q)
	}
	same := func(path string, i, gi int, gd float64) {
		if gi != want[i] || math.Float64bits(gd) != math.Float64bits(wantD[i]) {
			t.Fatalf("%s: %s on query %d %v: (%d, %v bits %x), brute (%d, %v bits %x)",
				label, path, i, qs[i], gi, gd, math.Float64bits(gd), want[i], wantD[i], math.Float64bits(wantD[i]))
		}
	}
	for i, q := range qs {
		gi, gd := f.Nearest(q)
		same("Nearest", i, gi, gd)
	}
	idx := make([]int, n)
	d2 := make([]float64, n)
	for _, w := range []int{1, 4} {
		f.NearestBatch(qs, idx, d2, w)
		for i := range qs {
			same(fmt.Sprintf("NearestBatch(W=%d)", w), i, idx[i], d2[i])
		}
	}
	var a Assigner
	labels, _ := a.Assign(qs, cs, 0, 1)
	for i := range qs {
		same("Assign", i, labels[i], wantD[i])
	}
}

// TestFinderMatchesBruteBitwise is the search battery: for K ∈ {1…40,
// 100, 250} (the search runs from K = 24 up; below, every query scans),
// d ∈ {1, 2, 3, 8, 16, 17, 64} and every value regime, in the drawn
// order and reversed (so the lower index of every tied pair sits on
// either side), with duplicates planted below and above and with a
// non-finite centroid, every path returns NearestBrute's index and
// distance bits on queries on a centroid, near one, at the midpoint of
// nearest pairs, uniform over the bounding box and non-finite.
func TestFinderMatchesBruteBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	ks := []int{100, 250}
	for k := 1; k <= 40; k++ {
		ks = append(ks, k)
	}
	for _, dim := range []int{1, 2, 3, 8, 16, 17, 64} {
		for _, k := range ks {
			if testing.Short() && k > 40 && dim > 8 {
				continue
			}
			for regime := 0; regime < numRegimes; regime++ {
				cs := finderSet(r, k, dim, regime)
				qs := finderQueries(r, cs)
				label := fmt.Sprintf("d=%d k=%d regime=%d", dim, k, regime)
				checkFinder(t, label, cs, qs)
				rev := make([]vec.Vector, k)
				for i := range cs {
					rev[k-1-i] = cs[i]
				}
				checkFinder(t, label+" reversed", rev, qs)
				dup := plantDuplicates(r, cs)
				checkFinder(t, label+" duplicates", dup, finderQueries(r, dup))
				if regime == regimeMixed || regime == regimeLattice {
					bad := append([]vec.Vector(nil), cs...)
					bc := cs[r.Intn(k)].Clone()
					bc[r.Intn(dim)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
					bad[r.Intn(k)] = bc
					checkFinder(t, label+" non-finite centroid", bad, qs)
				}
			}
		}
	}
}

// TestFinderGuardBatches drives the batch paths through long batches in
// regimes where certificates often fail (overlapping multi-scale
// centroids) and where they close (blobs), so the guard scans whole
// stretches and searches others; every answer stays the brute loop's.
func TestFinderGuardBatches(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for _, c := range []struct{ k, dim, regime int }{{32, 64, regimeMixed}, {100, 16, regimeBlobs}, {250, 8, regimeMixed}} {
		cs := finderSet(r, c.k, c.dim, c.regime)
		var qs []vec.Vector
		for len(qs) < 3000 {
			qs = append(qs, finderQueries(r, cs)...)
		}
		checkFinder(t, fmt.Sprintf("guard k=%d d=%d", c.k, c.dim), cs, qs)
	}
}

// TestFinderNonFiniteQueryScans: a query whose guess distance is NaN or
// +Inf falls back to the scan at once, evaluating no certificate
// distance — the search's non-finite rule, which its answers alone
// cannot show (a list walked against a NaN bound ends in a fallback
// too, only later).
func TestFinderNonFiniteQueryScans(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for _, k := range []int{32, 100} {
		cs := finderSet(r, k, 4, regimeBlobs)
		f := NewFinder(cs)
		if f.scanOnly {
			t.Fatalf("k=%d: finder is scan-only", k)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
			q := cs[3].Clone()
			q[1] = v
			if _, _, evals, ok := f.search(q); ok || evals != 0 {
				t.Fatalf("k=%d query %v: search ok=%v after %d distances, want an immediate fallback", k, q, ok, evals)
			}
		}
	}
}

// TestFinderResetAllocs: re-pointing a finder at a centroid set of the
// same K and dimension allocates nothing.
func TestFinderResetAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	for _, k := range []int{1, 9, 32, 100} {
		a, b := randCentroids(r, k, 8), randCentroids(r, k, 8)
		f := NewFinder(a)
		if allocs := testing.AllocsPerRun(10, func() { f.Reset(b); f.Reset(a) }); allocs != 0 {
			t.Fatalf("k=%d: Reset allocates %.1f times", k, allocs)
		}
	}
}

// FuzzFinderNearest: the fuzzer picks the centroid count, the dimension,
// the value regime and a planted tie (a duplicate of one centroid at
// another index, or none), and a seed draws the values; every search
// path must return NearestBrute's index and distance bits on the
// battery's queries.
func FuzzFinderNearest(f *testing.F) {
	f.Add(uint8(23), uint8(2), uint8(regimeLattice), uint16(0x0304), int64(1))
	f.Add(uint8(99), uint8(16), uint8(regimeBlobs), uint16(0), int64(2))
	f.Add(uint8(32), uint8(64), uint8(regimeMixed), uint16(0x1f02), int64(3))
	f.Add(uint8(39), uint8(3), uint8(regimeTiny), uint16(0x0201), int64(4))
	f.Add(uint8(63), uint8(8), uint8(regimeHuge), uint16(0x0b00), int64(5))
	f.Add(uint8(249), uint8(1), uint8(regimeLattice), uint16(0x7701), int64(6))
	f.Add(uint8(8), uint8(7), uint8(regimeMixed), uint16(0x0102), int64(7))
	f.Fuzz(func(t *testing.T, kB, dimB, regimeB uint8, tie uint16, seed int64) {
		k := 1 + int(kB)%250
		dim := 1 + int(dimB)%64
		regime := int(regimeB) % numRegimes
		r := rand.New(rand.NewSource(seed))
		cs := finderSet(r, k, dim, regime)
		if from, to := int(tie>>8)%k, int(tie&0xff)%k; from != to {
			cs[to] = cs[from].Clone()
		}
		checkFinder(t, fmt.Sprintf("k=%d d=%d regime=%d tie=%04x", k, dim, regime, tie), cs, finderQueries(r, cs))
	})
}
