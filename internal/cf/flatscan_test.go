package cf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// bruteNearest is the reference loop ScanNearestX0 replaces: the flat
// O(K) vec.SqDist scan shared by Phase 4 assignment, Lloyd iteration and
// Classify, down to the strict-< lowest-index tie rule.
func bruteNearest(q vec.Vector, centroids []vec.Vector) (int, float64) {
	best, bestD := 0, vec.SqDist(q, centroids[0])
	for i := 1; i < len(centroids); i++ {
		if d := vec.SqDist(q, centroids[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// centroidBlock packs the centroids one singleton slot each into a flat
// centroid block (the x0 slab alone).
func centroidBlock(dim int, centroids []vec.Vector) *Block {
	b := NewCentroidBlock(dim, len(centroids))
	for _, c := range centroids {
		b.AppendPoint(c)
	}
	return b
}

// checkNearestLanes holds the four-lane ScanNearestX0 to its
// single-accumulator reference and to the brute vec.SqDist loop: same
// index, same distance bits.
func checkNearestLanes(q vec.Vector, centroids []vec.Vector) error {
	b := centroidBlock(len(q), centroids)
	wantI, wantD := bruteNearest(q, centroids)
	for _, s := range []struct {
		name string
		scan func(vec.Vector, *Block) (int, float64)
	}{{"lane scan", ScanNearestX0}, {"reference scan", refScanNearestX0}} {
		i, d := s.scan(q, b)
		if i != wantI || math.Float64bits(d) != math.Float64bits(wantD) {
			return fmt.Errorf("dim=%d k=%d: %s (%d, bits %x), brute (%d, bits %x)",
				len(q), len(centroids), s.name, i, math.Float64bits(d), wantI, math.Float64bits(wantD))
		}
	}
	return nil
}

// TestScanNearestX0MatchesBruteBitwise is the flat-scan equivalence
// property: for every K from 1 to 40, over random centroid slates with
// the brute winner duplicated into each lane position of a four-
// centroid step (so the lowest-index tie rule is exercised per lane)
// and with a non-finite centroid planted, the fused scan returns the
// same index and the bit-identical squared distance as the brute
// vec.SqDist loop and the single-accumulator reference.
func TestScanNearestX0MatchesBruteBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, dim := range []int{1, 2, 3, 8, 17, 64} {
		for k := 1; k <= 40; k++ {
			for trial := 0; trial < 4; trial++ {
				centroids := make([]vec.Vector, k)
				for i := range centroids {
					c := vec.New(dim)
					scale := math.Pow(10, float64(r.Intn(7)-3))
					for j := range c {
						c[j] = (r.Float64() - 0.5) * scale
					}
					centroids[i] = c
				}
				for qi := 0; qi < 5; qi++ {
					q := vec.New(dim)
					for j := range q {
						q[j] = (r.Float64() - 0.5) * 100
					}
					if qi == 0 {
						q = centroids[r.Intn(k)].Clone() // distance-zero case
					}
					if err := checkNearestLanes(q, centroids); err != nil {
						t.Fatal(err)
					}
					// The winner again at a later slot in each lane.
					w, _ := bruteNearest(q, centroids)
					for lane := 0; lane < 4; lane++ {
						tt := w + 1 + (lane-(w+1)%4+4)%4
						if tt >= k {
							continue
						}
						tied := append([]vec.Vector(nil), centroids...)
						tied[tt] = centroids[w].Clone()
						if err := checkNearestLanes(q, tied); err != nil {
							t.Fatalf("tie in lane %d: %v", lane, err)
						}
					}
					// A non-finite centroid in a random slot.
					bad := append([]vec.Vector(nil), centroids...)
					nf := vec.New(dim)
					for j := range nf {
						nf[j] = (r.Float64() - 0.5) * 4e200
					}
					nf[r.Intn(dim)] = []float64{nf[0], math.Inf(-1), math.NaN()}[qi%3]
					bad[r.Intn(k)] = nf
					if err := checkNearestLanes(q, bad); err != nil {
						t.Fatalf("non-finite centroid: %v", err)
					}
				}
			}
		}
	}
}

// TestBlockSetPointMatchesSet verifies the SetPoint fast path stores
// exactly the bits Set(FromPoint(p)) would, via the CheckSync contract,
// in a flat centroid block and in the slab set of each classic metric.
func TestBlockSetPointMatchesSet(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for i, dim := range []int{1, 2, 7, 33, 3, 5, 9} {
		b := NewCentroidBlock(dim, 8)
		ref := NewCentroidBlock(dim, 8)
		if i < len(denseScanMetrics) {
			b = NewBlockOpts(dim, 8, denseScanMetrics[i], CoreClassic)
			ref = NewBlockOpts(dim, 8, denseScanMetrics[i], CoreClassic)
		}
		for i := 0; i < 8; i++ {
			p := vec.New(dim)
			for j := range p {
				p[j] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(9)-4))
			}
			b.AppendPoint(p)
			c := FromPoint(p)
			ref.Append(&c)
			if err := b.CheckSync(i, &c); err != nil {
				t.Fatalf("dim=%d slot %d: SetPoint out of sync with FromPoint: %v", dim, i, err)
			}
		}
	}
}

// TestBlockSetPointZeroAlloc pins the serving-path contract: re-packing
// moving centroids into an existing block allocates nothing. Static
// half: SetPoint/AppendPoint/Truncate carry //birchlint:hotpath
// (block.go), so the hotpath pass rejects allocating constructs before
// this gate ever runs.
func TestBlockSetPointZeroAlloc(t *testing.T) {
	const dim, k = 8, 32
	b := NewCentroidBlock(dim, k)
	centroids := make([]vec.Vector, k)
	for i := range centroids {
		c := vec.New(dim)
		for j := range c {
			c[j] = float64(i*dim + j)
		}
		centroids[i] = c
		b.AppendPoint(c)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Truncate(0)
		for _, c := range centroids {
			b.AppendPoint(c)
		}
		for i, c := range centroids {
			b.SetPoint(i, c)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-packing a centroid block allocates %.1f times per pass, want 0", allocs)
	}
}
