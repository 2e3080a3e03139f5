package cf

import (
	"fmt"
	"math"

	"birch/internal/vec"
)

// Metric selects one of the paper's five inter-cluster distance
// definitions (Section 3, eqs. 1 and 4–6). All are computable from CF
// triples alone.
type Metric int

const (
	// D0 is the Euclidean distance between the two centroids (eq. 1).
	D0 Metric = iota
	// D1 is the Manhattan distance between the two centroids (eq. 4).
	D1
	// D2 is the average inter-cluster distance: the root mean squared
	// distance over all cross pairs (Xi in c1, Xj in c2) (eq. 5).
	D2
	// D3 is the average intra-cluster distance of the merged cluster,
	// i.e. the diameter of c1 ∪ c2 (eq. 6).
	D3
	// D4 is the variance-increase distance: the square root of the growth
	// in total within-cluster SSE caused by merging c1 and c2.
	D4
	// DCos is the cosine (normalized-Euclidean) distance between the two
	// centroids: d² = 2·(1 − cos θ) = ‖a/‖a‖ − b/‖b‖‖², the metric of the
	// document/embedding workloads (K-tree, De Vries & Geva; PAPERS.md).
	// Not one of the paper's five, but computable from CF triples alone
	// just like D0–D4, so it slots into the same kernel/scan machinery.
	DCos
)

// String returns the paper's name for the metric.
func (m Metric) String() string {
	switch m {
	case D0:
		return "D0"
	case D1:
		return "D1"
	case D2:
		return "D2"
	case D3:
		return "D3"
	case D4:
		return "D4"
	case DCos:
		return "COS"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Valid reports whether m is one of D0–D4 or DCos.
func (m Metric) Valid() bool { return m >= D0 && m <= DCos }

// ParseMetric converts a string such as "D2" or "d2" to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "D0", "d0":
		return D0, nil
	case "D1", "d1":
		return D1, nil
	case "D2", "d2":
		return D2, nil
	case "D3", "d3":
		return D3, nil
	case "D4", "d4":
		return D4, nil
	case "COS", "cos", "Cos", "cosine":
		return DCos, nil
	}
	return 0, fmt.Errorf("cf: unknown metric %q (want D0..D4 or COS)", s)
}

// Distance returns the metric-m distance between the clusters summarized by
// a and b. Both must be non-empty. The result is always ≥ 0 and is
// symmetric in a and b for every metric.
func Distance(m Metric, a, b *CF) float64 {
	checkSameKind("distance", a, b)
	switch m {
	case D0:
		return centroidEuclidean(a, b)
	case D1:
		return centroidManhattan(a, b)
	// DistanceSq is non-negative on every path: the classic D2/D3 bodies
	// clamp, D4 is a product of squares, and the betula bodies are sums
	// and quotients of non-negatives (the only subtraction is N−1 under
	// an N ≥ 2 guard).
	case D2:
		//birchlint:ignore sqrtclamp betula D2 is a sum of non-negatives; classic branch clamps
		return math.Sqrt(DistanceSq(D2, a, b))
	case D3:
		//birchlint:ignore sqrtclamp betula D3 is 2S/(N-1) with S >= 0, N >= 2; classic branch clamps
		return math.Sqrt(DistanceSq(D3, a, b))
	case D4:
		//birchlint:ignore sqrtclamp betula D4 is the Ward form, a product of squares like classic
		return math.Sqrt(DistanceSq(D4, a, b))
	case DCos:
		//birchlint:ignore sqrtclamp cosDistSq clamps at 0 (cosine similarity can exceed 1 by rounding)
		return math.Sqrt(DistanceSq(DCos, a, b))
	default:
		panic("cf: invalid metric " + m.String())
	}
}

// DistanceSq returns the squared metric-m distance. For D0–D2 this is the
// square of Distance; for D3 it is the squared merged diameter and for D4
// the raw variance increase. Comparisons (closest entry, threshold tests)
// can use DistanceSq to avoid square roots on hot paths, since x ↦ x² is
// monotone on non-negative reals.
func DistanceSq(m Metric, a, b *CF) float64 {
	if a.N == 0 || b.N == 0 {
		panic("cf: distance involving empty CF")
	}
	checkSameKind("distance", a, b)
	switch m {
	case D0:
		d := centroidEuclidean(a, b)
		return d * d
	case D1:
		d := centroidManhattan(a, b)
		return d * d
	case D2:
		if a.kind == CoreBETULA {
			return averageInterSqBetula(a, b)
		}
		return averageInterSq(a, b)
	case D3:
		if a.kind == CoreBETULA {
			return mergedDiameterSqBetula(a, b)
		}
		return mergedDiameterSq(a, b)
	case D4:
		if a.kind == CoreBETULA {
			return varianceIncreaseBetula(a, b)
		}
		return varianceIncrease(a, b)
	case DCos:
		if a.kind == CoreBETULA {
			return centroidCosineSqBetula(a, b)
		}
		return centroidCosineSq(a, b)
	default:
		panic("cf: invalid metric " + m.String())
	}
}

// centroidEuclidean computes D0 without allocating centroid vectors.
// Under BETULA the centroids are stored directly, so the per-component
// divisions disappear.
func centroidEuclidean(a, b *CF) float64 {
	if a.kind == CoreBETULA {
		var s float64
		for i := range a.LS {
			d := a.LS[i] - b.LS[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	na, nb := float64(a.N), float64(b.N)
	var s float64
	for i := range a.LS {
		d := a.LS[i]/na - b.LS[i]/nb
		s += d * d
	}
	return math.Sqrt(s)
}

// centroidManhattan computes D1 without allocating centroid vectors.
func centroidManhattan(a, b *CF) float64 {
	if a.kind == CoreBETULA {
		var s float64
		for i := range a.LS {
			s += math.Abs(a.LS[i] - b.LS[i])
		}
		return s
	}
	na, nb := float64(a.N), float64(b.N)
	var s float64
	for i := range a.LS {
		s += math.Abs(a.LS[i]/na - b.LS[i]/nb)
	}
	return s
}

// averageInterSq computes D2² from the CF algebra:
//
//	D2² = (Σi Σj ‖Xi−Xj‖²) / (N1·N2)
//	    = SS1/N1 + SS2/N2 − 2·(LS1·LS2)/(N1·N2)
func averageInterSq(a, b *CF) float64 {
	na, nb := float64(a.N), float64(b.N)
	v := a.SS/na + b.SS/nb - 2*vec.Dot(a.LS, b.LS)/(na*nb)
	if v < 0 {
		return 0
	}
	return v
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

// varianceIncrease computes D4² = SSE(a ∪ b) − SSE(a) − SSE(b). It reduces
// to the classic Ward form  (N1·N2/(N1+N2))·‖X01 − X02‖², computed here
// directly from the triples for numerical robustness.
func varianceIncrease(a, b *CF) float64 {
	na, nb := float64(a.N), float64(b.N)
	var cdistSq float64
	for i := range a.LS {
		d := a.LS[i]/na - b.LS[i]/nb
		cdistSq += d * d
	}
	return na * nb / (na + nb) * cdistSq
}

// The BETULA distance bodies. Each is the mean/deviation form of the
// classic formula above — algebraically equal, but every term is
// non-negative, so the clamps the classic forms need are structurally
// impossible to hit. The fused kernels (kernel.go, scan.go) mirror these
// bodies operation for operation; keep them in sync.

// averageInterSqBetula computes D2² = Sa/Na + Sb/Nb + ‖μa − μb‖².
func averageInterSqBetula(a, b *CF) float64 {
	na, nb := float64(a.N), float64(b.N)
	var d2 float64
	for i := range a.LS {
		d := a.LS[i] - b.LS[i]
		d2 += d * d
	}
	return a.SS/na + b.SS/nb + d2
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

// varianceIncreaseBetula computes D4² in Ward form from stored means.
func varianceIncreaseBetula(a, b *CF) float64 {
	na, nb := float64(a.N), float64(b.N)
	var cdistSq float64
	for i := range a.LS {
		d := a.LS[i] - b.LS[i]
		cdistSq += d * d
	}
	return na * nb / (na + nb) * cdistSq
}

// centroidCosineSq computes DCos² between the centroids without
// allocating them: one pass accumulates the dot product and both squared
// norms in three independent accumulators, then cosDistSq combines them.
// The kernel and scan paths reproduce exactly these per-accumulator
// operation sequences (hoisting whole subexpressions only), which is what
// makes the fused cosine paths bit-identical to this reference.
func centroidCosineSq(a, b *CF) float64 {
	na, nb := float64(a.N), float64(b.N)
	var dot, aa, bb float64
	for i := range a.LS {
		xa := a.LS[i] / na
		xb := b.LS[i] / nb
		dot += xa * xb
		aa += xa * xa
		bb += xb * xb
	}
	return cosDistSq(dot, math.Sqrt(aa), math.Sqrt(bb))
}

// centroidCosineSqBetula is the BETULA DCos²: the stored means are the
// centroids, so the per-component divisions disappear.
func centroidCosineSqBetula(a, b *CF) float64 {
	var dot, aa, bb float64
	for i := range a.LS {
		xa := a.LS[i]
		xb := b.LS[i]
		dot += xa * xb
		aa += xa * xa
		bb += xb * xb
	}
	return cosDistSq(dot, math.Sqrt(aa), math.Sqrt(bb))
}

// cosDistSq combines a centroid dot product and the two centroid norms
// into the squared cosine distance 2·(1 − dot/(an·bn)), clamped at 0
// because rounding can push the cosine similarity just past 1. A zero
// centroid has no direction: against another zero centroid the distance
// is 0 (coincident), against anything else it is 2 (the orthogonal
// convention, also the metric's mean value). Every DCos path — generic,
// kernel, fused scan, sparse gather — funnels through this one tail, so
// the convention cannot drift between paths.
//
//birchlint:hotpath
func cosDistSq(dot, an, bn float64) float64 {
	if an == 0 || bn == 0 { //birchlint:ignore floateq exact zero-norm test: a norm is 0 iff the centroid is the zero vector
		if an == 0 && bn == 0 { //birchlint:ignore floateq exact zero-norm test, as above
			return 0
		}
		return 2
	}
	v := 2 * (1 - dot/(an*bn))
	if v < 0 {
		return 0
	}
	return v
}
