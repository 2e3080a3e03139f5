package cf

import "fmt"

// Metric selects one of the paper's five inter-cluster distance
// definitions (Section 3, eqs. 1 and 4–6). All are computable from CF
// triples alone. The distance itself has one production implementation:
// the kernels of kernel.go for a pair, and the block scans of scan.go
// (dense) and sparse.go (gather) for a node's argmin, which reproduce the
// kernels bit for bit. The per-pair reference the kernels are checked
// against lives in distance_ref_test.go.
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

// cosDistSq combines a centroid dot product and the two centroid norms
// into the squared cosine distance 2·(1 − dot/(an·bn)), clamped at 0
// because rounding can push the cosine similarity just past 1. A zero
// centroid has no direction: against another zero centroid the distance
// is 0 (coincident), against anything else it is 2 (the orthogonal
// convention, also the metric's mean value). Every DCos path — kernel,
// fused scan, sparse gather and the test reference — funnels through this
// one tail, so the convention cannot drift between paths.
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
