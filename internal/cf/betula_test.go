package cf

import (
	"math"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// randPoints draws n points from a unit-variance Gaussian around a random
// center of the given magnitude.
func randOffsetPoints(r *rand.Rand, dim, n int, magnitude float64) []vec.Vector {
	center := vec.New(dim)
	for d := range center {
		center[d] = (r.Float64() - 0.5) * 2 * magnitude
	}
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(dim)
		for d := range p {
			p[d] = center[d] + r.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// cfOfPoints folds the points into a fresh CF of the given backend.
func cfOfPoints(pts []vec.Vector, kind CoreKind) CF {
	c := NewCore(pts[0].Dim(), kind)
	for _, p := range pts {
		c.AddPoint(p)
	}
	return c
}

// exactMoments computes the reference mean and deviation sum with the
// numerically benign two-pass algorithm: the mean first (points of like
// magnitude, no cancellation), then squared deviations around it (unit-
// scale differences). Its relative error is O(ε·√n) regardless of the
// points' offset, which is what lets it act as ground truth at offsets
// where the classic single-pass triple has lost every significant digit.
func exactMoments(pts []vec.Vector) (mean vec.Vector, dev float64) {
	dim := pts[0].Dim()
	mean = vec.New(dim)
	for _, p := range pts {
		for d := range p {
			mean[d] += p[d]
		}
	}
	for d := range mean {
		mean[d] /= float64(len(pts))
	}
	for _, p := range pts {
		for d := range p {
			diff := p[d] - mean[d]
			dev += diff * diff
		}
	}
	return mean, dev
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// momentTol is the acceptance bound for BETULA deviation sums around a
// center of the given magnitude with unit spread. The floor is not the
// algorithm but the data: a coordinate at magnitude ± O(1) is quantized
// to ulp(magnitude) ≈ ε·magnitude before any algorithm sees it, so every
// per-point deviation carries that absolute error and S inherits a
// relative error of order ε·magnitude (times a small random-walk
// factor). Welford tracks that floor; the classic triple is worse by the
// square of the dynamic range and loses everything around 1e8.
func momentTol(magnitude float64) float64 {
	return 1e-9 + 1e-15*magnitude
}

// TestBetulaMomentsMatchReference: the Welford-maintained (N, μ, S)
// agrees with the two-pass reference to the quantization floor at every
// magnitude, including ones where the classic triple is useless.
func TestBetulaMomentsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for _, magnitude := range []float64{0, 10, 1e4, 1e8, 1e12} {
		tol := momentTol(magnitude)
		for _, dim := range []int{1, 3, 8} {
			pts := randOffsetPoints(r, dim, 200, magnitude)
			c := cfOfPoints(pts, CoreBETULA)
			mean, dev := exactMoments(pts)

			if c.N != 200 || c.Kind() != CoreBETULA {
				t.Fatalf("mag=%g dim=%d: N=%d kind=%v", magnitude, dim, c.N, c.Kind())
			}
			for d := range mean {
				if e := relErr(c.LS[d], mean[d]); e > 1e-10 && math.Abs(c.LS[d]-mean[d]) > 1e-10 {
					t.Fatalf("mag=%g dim=%d: mean[%d]=%g, want %g (rel %g)",
						magnitude, dim, d, c.LS[d], mean[d], e)
				}
			}
			if e := relErr(c.SS, dev); e > tol {
				t.Fatalf("mag=%g dim=%d: S=%g, want %g (rel %g)", magnitude, dim, c.SS, dev, e)
			}
			wantR2 := dev / 200
			if e := relErr(c.RadiusSq(), wantR2); e > tol {
				t.Fatalf("mag=%g dim=%d: R²=%g, want %g", magnitude, dim, c.RadiusSq(), wantR2)
			}
			wantD2 := 2 * dev / 199
			if e := relErr(c.DiameterSq(), wantD2); e > tol {
				t.Fatalf("mag=%g dim=%d: D²=%g, want %g", magnitude, dim, c.DiameterSq(), wantD2)
			}
			if e := relErr(c.SSE(), dev); e > tol {
				t.Fatalf("mag=%g dim=%d: SSE=%g, want %g", magnitude, dim, c.SSE(), dev)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("mag=%g dim=%d: %v", magnitude, dim, err)
			}
		}
	}
}

// TestBetulaMergeMatchesPointwise: merging two BCFs equals building one
// from the union of their points, and AddWeightedPoint equals repeated
// AddPoint of an identical point.
func TestBetulaMergeMatchesPointwise(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	for trial := 0; trial < 30; trial++ {
		dim := 1 + r.Intn(6)
		magnitude := math.Pow(10, float64(r.Intn(9)))
		ptsA := randOffsetPoints(r, dim, 1+r.Intn(50), magnitude)
		ptsB := randOffsetPoints(r, dim, 1+r.Intn(50), magnitude)

		a := cfOfPoints(ptsA, CoreBETULA)
		b := cfOfPoints(ptsB, CoreBETULA)
		merged := a.Clone()
		merged.Merge(&b)

		mean, dev := exactMoments(append(append([]vec.Vector{}, ptsA...), ptsB...))
		if merged.N != int64(len(ptsA)+len(ptsB)) {
			t.Fatalf("trial %d: merged N=%d", trial, merged.N)
		}
		for d := range mean {
			if e := relErr(merged.LS[d], mean[d]); e > 1e-9 && math.Abs(merged.LS[d]-mean[d]) > 1e-9 {
				t.Fatalf("trial %d: merged mean[%d]=%g, want %g", trial, d, merged.LS[d], mean[d])
			}
		}
		if e := relErr(merged.SS, dev); e > 1e-8 {
			t.Fatalf("trial %d: merged S=%g, want %g (rel %g)", trial, merged.SS, dev, e)
		}

		// MergedRadiusSq/MergedDiameterSq agree with the materialized merge.
		if e := relErr(MergedRadiusSq(&a, &b), merged.RadiusSq()); e > 1e-9 {
			t.Fatalf("trial %d: MergedRadiusSq=%g, merged R²=%g",
				trial, MergedRadiusSq(&a, &b), merged.RadiusSq())
		}
		if e := relErr(MergedDiameterSq(&a, &b), merged.DiameterSq()); e > 1e-9 {
			t.Fatalf("trial %d: MergedDiameterSq=%g, merged D²=%g",
				trial, MergedDiameterSq(&a, &b), merged.DiameterSq())
		}

		// Weighted add of the shared centroid equals w plain adds.
		w := int64(1 + r.Intn(7))
		p := a.Centroid()
		wa := a.Clone()
		wa.AddWeightedPoint(p, w)
		pa := a.Clone()
		for i := int64(0); i < w; i++ {
			pa.AddPoint(p)
		}
		if wa.N != pa.N || relErr(wa.SS, pa.SS) > 1e-9 {
			t.Fatalf("trial %d: weighted add S=%g, repeated add S=%g", trial, wa.SS, pa.SS)
		}
	}
}

// TestBetulaUnmergeInvertsMerge: unmerging what was merged restores the
// original statistics to tight relative error, and removing everything
// yields the empty CF.
func TestBetulaUnmergeInvertsMerge(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 30; trial++ {
		dim := 1 + r.Intn(6)
		a := cfOfPoints(randOffsetPoints(r, dim, 2+r.Intn(40), 100), CoreBETULA)
		b := cfOfPoints(randOffsetPoints(r, dim, 1+r.Intn(40), 100), CoreBETULA)
		c := a.Clone()
		c.Merge(&b)
		c.Unmerge(&b)
		if c.N != a.N {
			t.Fatalf("trial %d: N=%d after round trip, want %d", trial, c.N, a.N)
		}
		for d := range a.LS {
			if math.Abs(c.LS[d]-a.LS[d]) > 1e-6*(1+math.Abs(a.LS[d])) {
				t.Fatalf("trial %d: mean[%d]=%g, want %g", trial, d, c.LS[d], a.LS[d])
			}
		}
		if math.Abs(c.SS-a.SS) > 1e-6*(1+a.SS+b.SS) {
			t.Fatalf("trial %d: S=%g after round trip, want %g", trial, c.SS, a.SS)
		}

		full := a.Clone()
		full.Unmerge(&a)
		if full.N != 0 || full.SS != 0 {
			t.Fatalf("trial %d: full removal left N=%d S=%g", trial, full.N, full.SS)
		}
	}
}

// TestBetulaAgreesWithClassicAtModerateScale: at magnitudes where the
// classic triple is still healthy, the two backends agree on every
// moment and every D0–D4 distance.
func TestBetulaAgreesWithClassicAtModerateScale(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	for trial := 0; trial < 40; trial++ {
		dim := 1 + r.Intn(6)
		ptsA := randOffsetPoints(r, dim, 1+r.Intn(40), 10)
		ptsB := randOffsetPoints(r, dim, 1+r.Intn(40), 10)
		ca, ba := cfOfPoints(ptsA, CoreClassic), cfOfPoints(ptsA, CoreBETULA)
		cb, bb := cfOfPoints(ptsB, CoreClassic), cfOfPoints(ptsB, CoreBETULA)

		if e := relErr(ba.RadiusSq(), ca.RadiusSq()); e > 1e-6 {
			t.Fatalf("trial %d: betula R²=%g, classic %g", trial, ba.RadiusSq(), ca.RadiusSq())
		}
		if e := relErr(ba.DiameterSq(), ca.DiameterSq()); e > 1e-6 {
			t.Fatalf("trial %d: betula D²=%g, classic %g", trial, ba.DiameterSq(), ca.DiameterSq())
		}
		if e := relErr(ba.SSE(), ca.SSE()); e > 1e-6 {
			t.Fatalf("trial %d: betula SSE=%g, classic %g", trial, ba.SSE(), ca.SSE())
		}
		for _, m := range []Metric{D0, D1, D2, D3, D4} {
			dc := Distance(m, &ca, &cb)
			db := Distance(m, &ba, &bb)
			if math.Abs(dc-db) > 1e-6*(1+dc) {
				t.Fatalf("trial %d %v: betula %g, classic %g", trial, m, db, dc)
			}
		}
	}
}

// TestExtremeOffsetBattery is the numerical-stability regression gate:
// clusters of unit spread centered at offset ± O(1) — e.g. 1e8 ± 1 — are
// exactly the regime where the classic (N, LS, SS) triple cancels
// catastrophically (SS ≈ ‖LS‖²/N, all significant digits lost), while
// the BETULA (N, μ, S) form never subtracts large near-equal aggregates.
// The battery asserts both directions: BETULA stays at the f64
// quantization floor of the data (momentTol — ~ε·offset relative, e.g.
// < 1e-7 at 1e8), and classic is measurably degraded (grossly wrong or
// clamped to zero, > 10% error) at every tested offset — a gap of five
// or more orders of magnitude throughout.
func TestExtremeOffsetBattery(t *testing.T) {
	const (
		dim = 4
		n   = 500
	)
	for _, offset := range []float64{1e8, 1e10, 1e12} {
		tol := momentTol(offset)
		r := rand.New(rand.NewSource(105))
		center := vec.New(dim)
		for d := range center {
			center[d] = offset
		}
		pts := make([]vec.Vector, n)
		for i := range pts {
			p := vec.New(dim)
			for d := range p {
				p[d] = center[d] + 2*r.Float64() - 1 // offset ± 1
			}
			pts[i] = p
		}
		_, dev := exactMoments(pts)
		trueR2 := dev / n

		classic := cfOfPoints(pts, CoreClassic)
		betula := cfOfPoints(pts, CoreBETULA)

		betulaErr := relErr(betula.RadiusSq(), trueR2)
		classicErr := relErr(classic.RadiusSq(), trueR2)
		if betulaErr > tol {
			t.Errorf("offset %g: betula R² rel error %g, want < %g (R²=%g, truth %g)",
				offset, betulaErr, tol, betula.RadiusSq(), trueR2)
		}
		// The classic triple must be visibly broken here — wrong by more
		// than 10% or clamped to zero outright. If this ever starts
		// passing, the battery's premise (and the reason the BETULA core
		// exists) should be re-examined.
		if classicErr < 0.1 {
			t.Errorf("offset %g: classic R² unexpectedly accurate (rel error %g, R²=%g, truth %g)",
				offset, classicErr, classic.RadiusSq(), trueR2)
		}
		if betulaDiam := relErr(betula.DiameterSq(), 2*dev/(n-1)); betulaDiam > tol {
			t.Errorf("offset %g: betula D² rel error %g", offset, betulaDiam)
		}

		// Inter-cluster D2 between two unit-spread clusters 3 apart at the
		// same offset: truth ≈ Ra² + Rb² + 9·dim⁰ (centroid gap along one
		// axis). The betula form tracks it; the classic radicand is noise.
		pts2 := make([]vec.Vector, n)
		for i := range pts2 {
			p := pts[i].Clone()
			p[0] += 3
			pts2[i] = p
		}
		meanA, devA := exactMoments(pts)
		meanB, devB := exactMoments(pts2)
		var gap float64
		for d := range meanA {
			diff := meanA[d] - meanB[d]
			gap += diff * diff
		}
		trueD2Sq := devA/float64(n) + devB/float64(n) + gap

		cA, cB := cfOfPoints(pts, CoreClassic), cfOfPoints(pts2, CoreClassic)
		bA, bB := cfOfPoints(pts, CoreBETULA), cfOfPoints(pts2, CoreBETULA)
		if e := relErr(DistanceSq(D2, &bA, &bB), trueD2Sq); e > 1e-6+tol {
			t.Errorf("offset %g: betula D2² rel error %g (got %g, truth %g)",
				offset, e, DistanceSq(D2, &bA, &bB), trueD2Sq)
		}
		if e := relErr(DistanceSq(D2, &cA, &cB), trueD2Sq); e < 0.1 {
			t.Errorf("offset %g: classic D2² unexpectedly accurate (rel error %g)", offset, e)
		}
	}
}

// TestCoreKindDispatchAndAdoption covers the tagged-union mechanics: the
// zero kind is classic, empty CFs adopt the kind of the first merge, and
// cross-kind algebra panics rather than silently mixing representations.
func TestCoreKindDispatchAndAdoption(t *testing.T) {
	zero := New(3)
	if k := zero.Kind(); k != CoreClassic {
		t.Fatalf("zero-value kind = %v, want classic", k)
	}
	b := Betula.New(3)
	if b.Kind() != CoreBETULA {
		t.Fatalf("Betula.New kind = %v", b.Kind())
	}
	p := vec.Vector{1, 2, 3}
	if s := Betula.FromPoint(p); s.N != 1 || s.SS != 0 || s.Kind() != CoreBETULA {
		t.Fatalf("Betula.FromPoint = %v", s.String())
	}

	// Empty accumulator adopts the source kind on first merge.
	acc := New(3)
	src := Betula.FromPoint(p)
	acc.Merge(&src)
	if acc.Kind() != CoreBETULA {
		t.Fatalf("empty Merge did not adopt kind: %v", acc.Kind())
	}

	// Cross-kind Merge panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-kind Merge did not panic")
			}
		}()
		cl := FromPoint(p)
		bt := Betula.FromPoint(p)
		cl.Merge(&bt)
	}()
	// Cross-kind DistanceSq panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-kind DistanceSq did not panic")
			}
		}()
		cl := FromPoint(p)
		bt := Betula.FromPoint(p)
		DistanceSq(D0, &cl, &bt)
	}()
}

// TestBetulaFromComponents covers the deserialization path: valid
// components round-trip, a negative deviation sum is rejected.
func TestBetulaFromComponents(t *testing.T) {
	c, err := Betula.FromComponents(4, vec.Vector{1, 2}, 6.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != CoreBETULA || c.N != 4 || c.SS != 6.5 {
		t.Fatalf("round trip = %v", c.String())
	}
	if _, err := Betula.FromComponents(4, vec.Vector{1, 2}, -1); err == nil {
		t.Fatal("negative deviation sum accepted")
	}
	if _, err := Betula.FromComponents(-1, vec.Vector{1, 2}, 0); err == nil {
		t.Fatal("negative N accepted")
	}
}

// TestParseCoreKind covers the string round trip the CLI and config
// layers use.
func TestParseCoreKind(t *testing.T) {
	for _, k := range []CoreKind{CoreClassic, CoreBETULA} {
		got, err := ParseCoreKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseCoreKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseCoreKind("nope"); err == nil {
		t.Fatal("bad core kind accepted")
	}
}
