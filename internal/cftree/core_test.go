package cftree

import (
	"math"
	"math/rand"
	"testing"

	"birch/internal/cf"
	"birch/internal/vec"
)

// streamPoints yields a deterministic mixed-cluster stream.
func streamPoints(seed int64, dim, n int, spread float64) []vec.Vector {
	r := rand.New(rand.NewSource(seed))
	centers := make([]vec.Vector, 5)
	for i := range centers {
		c := vec.New(dim)
		for d := range c {
			c[d] = (r.Float64() - 0.5) * 2 * spread
		}
		centers[i] = c
	}
	pts := make([]vec.Vector, n)
	for i := range pts {
		c := centers[r.Intn(len(centers))]
		p := vec.New(dim)
		for d := range p {
			p[d] = c[d] + r.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// TestTreeBetulaConservation: a betula tree conserves mass and mean —
// leaf Ns sum to the stream count, and the N-weighted mean of leaf means
// reproduces the stream mean (the BCF additivity invariant, which the
// tree's absorb/split/merge machinery must never break).
func TestTreeBetulaConservation(t *testing.T) {
	const dim = 4
	p := Params{
		Dim:               dim,
		Branching:         6,
		LeafCap:           4,
		Threshold:         1.0,
		ThresholdKind:     cf.ThresholdDiameter,
		Metric:            cf.D2,
		MergingRefinement: true,
		Core:              cf.CoreBETULA,
	}
	tr := mustTree(t, p)
	pts := streamPoints(78, dim, 1500, 60)
	streamMean := vec.New(dim)
	for _, pt := range pts {
		tr.Insert(cf.Betula.FromPoint(pt))
		for d := range pt {
			streamMean[d] += pt[d]
		}
	}
	for d := range streamMean {
		streamMean[d] /= float64(len(pts))
	}

	if tr.Points() != int64(len(pts)) {
		t.Fatalf("points = %d, want %d", tr.Points(), len(pts))
	}
	var mass int64
	weighted := vec.New(dim)
	for _, leaf := range tr.LeafCFs() {
		if leaf.Kind() != cf.CoreBETULA {
			t.Fatalf("leaf carries kind %v", leaf.Kind())
		}
		mass += leaf.N
		for d := range leaf.LS {
			weighted[d] += float64(leaf.N) * leaf.LS[d]
		}
		if err := leaf.Validate(); err != nil {
			t.Fatalf("leaf: %v", err)
		}
	}
	if mass != int64(len(pts)) {
		t.Fatalf("leaf mass = %d, want %d", mass, len(pts))
	}
	for d := range weighted {
		got := weighted[d] / float64(mass)
		if math.Abs(got-streamMean[d]) > 1e-9*(1+math.Abs(streamMean[d])) {
			t.Fatalf("component %d: weighted leaf mean %g, stream mean %g", d, got, streamMean[d])
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Rebuild preserves the kind and the conservation law.
	nt, outliers, err := tr.Rebuild(tr.Threshold()*2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outliers) != 0 {
		t.Fatalf("nil outlier predicate extracted %d entries", len(outliers))
	}
	if nt.Points() != int64(len(pts)) {
		t.Fatalf("rebuilt points = %d", nt.Points())
	}
	for _, leaf := range nt.LeafCFs() {
		if leaf.Kind() != cf.CoreBETULA {
			t.Fatalf("rebuilt leaf carries kind %v", leaf.Kind())
		}
	}
	if err := nt.CheckInvariants(); err != nil {
		t.Fatalf("rebuilt invariants: %v", err)
	}
}

// TestTreeRejectsMismatchedCore: inserting an entry of the wrong backend
// must fail loudly (error from InsertNoSplit, panic from Insert), never
// silently mix representations.
func TestTreeRejectsMismatchedCore(t *testing.T) {
	p := defaultParams()
	p.Core = cf.CoreBETULA
	tr := mustTree(t, p)
	if err := tr.InsertNoSplit(cf.FromPoint(vec.Of(1, 2))); err == nil {
		t.Fatal("classic entry accepted by betula tree")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Insert of mismatched core did not panic")
			}
		}()
		tr.Insert(cf.FromPoint(vec.Of(1, 2)))
	}()

	// And the reverse direction.
	tc := mustTree(t, defaultParams())
	if err := tc.InsertNoSplit(cf.Betula.FromPoint(vec.Of(1, 2))); err == nil {
		t.Fatal("betula entry accepted by classic tree")
	}
}

// TestParamsCoreValidation pins Params.Validate on the core knob.
func TestParamsCoreValidation(t *testing.T) {
	p := defaultParams()
	p.Core = cf.CoreKind(99)
	if _, err := New(p, bigPager()); err == nil {
		t.Fatal("invalid core kind accepted")
	}
	p = defaultParams()
	p.Core = cf.CoreBETULA
	if _, err := New(p, bigPager()); err != nil {
		t.Fatalf("betula params rejected: %v", err)
	}
}
