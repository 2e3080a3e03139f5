package cf

// This file provides trial-merge computations: the properties the merged
// cluster a ∪ b would have, computed directly from the two CF triples
// without materializing the merge. The CF-tree threshold test (a new point
// may be absorbed by the closest leaf entry only if the resulting cluster
// still satisfies the threshold condition, Section 4.3) calls these on
// every insertion, so they are allocation-free.

// MergedRadiusSq returns R² of the cluster a ∪ b.
//
//birchlint:hotpath
func MergedRadiusSq(a, b *CF) float64 {
	if a.N+b.N == 0 {
		return 0
	}
	// An empty operand may still carry the other backend's kind (scratch
	// CFs start empty); the BETULA form is exact in that case too, since
	// an empty BCF contributes nothing to the merged deviation.
	if a.kind == CoreBETULA || b.kind == CoreBETULA {
		return betulaMergedDeviation(a, b) / float64(a.N+b.N)
	}
	n := float64(a.N + b.N)
	ss := a.SS + b.SS
	var lsSq float64
	for i := range a.LS {
		s := a.LS[i] + b.LS[i]
		lsSq += s * s
	}
	r2 := ss/n - lsSq/(n*n)
	if r2 < 0 {
		return 0
	}
	return r2
}

// MergedDiameterSq returns D² of the cluster a ∪ b: the D3 distance
// (kernelD3 and kernelD3b give the same bits for non-empty operands), but
// total — it permits empty operands.
//
//birchlint:hotpath
func MergedDiameterSq(a, b *CF) float64 {
	if a.N == 0 {
		return b.DiameterSq()
	}
	if b.N == 0 {
		return a.DiameterSq()
	}
	if a.kind == CoreBETULA {
		return mergedDiameterSqBetula(a, b)
	}
	return mergedDiameterSq(a, b)
}

// mergedDiameterSq computes D3² = D²(a ∪ b) without materializing the
// merged CF.
func mergedDiameterSq(a, b *CF) float64 {
	n := float64(a.N + b.N)
	if n < 2 {
		return 0
	}
	ss := a.SS + b.SS
	var lsSq float64
	for i := range a.LS {
		s := a.LS[i] + b.LS[i]
		lsSq += s * s
	}
	d2 := (2*n*ss - 2*lsSq) / (n * (n - 1))
	if d2 < 0 {
		return 0
	}
	return d2
}

// mergedDiameterSqBetula computes D3² = 2·S(a ∪ b)/(N−1) with the merged
// deviation sum S(a ∪ b) = Sa + Sb + (Na·Nb/N)·‖μa − μb‖².
func mergedDiameterSqBetula(a, b *CF) float64 {
	n := float64(a.N + b.N)
	if n < 2 {
		return 0
	}
	na, nb := float64(a.N), float64(b.N)
	var d2 float64
	for i := range a.LS {
		d := a.LS[i] - b.LS[i]
		d2 += d * d
	}
	s := a.SS + b.SS + na*nb/n*d2
	return 2 * s / (n - 1)
}

// ThresholdKind selects which cluster property the CF-tree threshold T
// constrains. The paper uses the diameter by default and mentions the
// radius as the alternative ("the diameter (or radius)", Section 4.2).
type ThresholdKind int

const (
	// ThresholdDiameter requires D(leaf entry) ≤ T.
	ThresholdDiameter ThresholdKind = iota
	// ThresholdRadius requires R(leaf entry) ≤ T.
	ThresholdRadius
)

// String names the threshold kind.
func (k ThresholdKind) String() string {
	switch k {
	case ThresholdDiameter:
		return "diameter"
	case ThresholdRadius:
		return "radius"
	default:
		return "ThresholdKind(?)"
	}
}

// MergedSatisfiesThreshold reports whether the cluster a ∪ b would satisfy
// the threshold condition: its diameter (or radius, per kind) ≤ t.
//
//birchlint:hotpath
func MergedSatisfiesThreshold(a, b *CF, kind ThresholdKind, t float64) bool {
	switch kind {
	case ThresholdDiameter:
		return MergedDiameterSq(a, b) <= t*t
	case ThresholdRadius:
		return MergedRadiusSq(a, b) <= t*t
	default:
		panic("cf: invalid threshold kind")
	}
}

// SatisfiesThreshold reports whether cluster c alone satisfies the
// threshold condition.
//
//birchlint:hotpath
func SatisfiesThreshold(c *CF, kind ThresholdKind, t float64) bool {
	switch kind {
	case ThresholdDiameter:
		return c.DiameterSq() <= t*t
	case ThresholdRadius:
		return c.RadiusSq() <= t*t
	default:
		panic("cf: invalid threshold kind")
	}
}
