package cf

import (
	"math"

	"birch/internal/vec"
)

// This file is the bitwise oracle for the production distance paths: the
// generic per-pair distance, one metric switch and one body per metric
// and core, written straight from the CF algebra. Nothing in production
// calls it. kernel_test.go pins every kernel to DistanceSq in
// Float64bits, under both cores and with either operand bound, and the
// scan batteries pin the block scans to the kernel loop, so every
// production path is held to these bodies.

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
