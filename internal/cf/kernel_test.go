package cf

import (
	"math"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// randCF is randCFCore under the classic backend.
func randCF(r *rand.Rand, dim, n int, magnitude float64) CF {
	return randCFCore(r, dim, n, magnitude, CoreClassic)
}

// kernelCasePairs yields CF pairs of one core covering the regimes that
// matter: random pairs at magnitudes from 1 to 1e8 (every seventh pair
// identical), singletons, identical and near-identical pairs (where
// SS/N − ‖X0‖²-shaped terms cancel catastrophically), and far-offset
// large-magnitude pairs. Operands are built by adding points to an empty
// CF of the core, as every production CF is.
func kernelCasePairs(r *rand.Rand, kind CoreKind, dim int) []([2]CF) {
	var pairs [][2]CF
	for trial := 0; trial < 60; trial++ {
		mag := []float64{1, 10, 1e4, 1e8}[trial%4]
		a := randCFCore(r, dim, 1+r.Intn(50), mag, kind)
		if trial%7 == 6 {
			pairs = append(pairs, [2]CF{a, a.Clone()})
			continue
		}
		b := randCFCore(r, dim, 1+r.Intn(50), mag, kind)
		pairs = append(pairs, [2]CF{a, b})
	}
	// Singletons against clusters and against each other.
	s1 := randCFCore(r, dim, 1, 5, kind)
	s2 := randCFCore(r, dim, 1, 5, kind)
	pairs = append(pairs, [2]CF{s1, s2}, [2]CF{s1, randCFCore(r, dim, 30, 5, kind)})
	// Identical pair: every centroid difference cancels exactly.
	same := randCFCore(r, dim, 25, 1000, kind)
	pairs = append(pairs, [2]CF{same, same.Clone()})
	// Near-identical at large magnitude: the D2 radicand goes slightly
	// negative from cancellation — the clamp-to-zero case.
	near := same.Clone()
	bump := vec.New(dim)
	bump[0] = 1e-9
	near.AddPoint(vec.Add(same.Centroid(), bump))
	pairs = append(pairs, [2]CF{same, near})
	// Large offsets: dominated terms lose low bits.
	pairs = append(pairs, [2]CF{randCFCore(r, dim, 40, 1e8, kind), randCFCore(r, dim, 40, 1e8, kind)})
	return pairs
}

// TestKernelMatchesDistanceSqBitwise is the equivalence property of the
// kernels, the one production implementation of a pair distance: for
// every (metric, core) pair, the kernel bound to b and applied to a, and
// the kernel bound to a and applied to b, are both bit-identical to the
// DistanceSq oracle on (a, b). The first is the kernel contract; the
// second is the operand symmetry every row-bound pair path (split seeds,
// redistribution, closest pairs, D_min, the HC matrix) relies on.
// Comparisons use Float64bits so that the assertion itself is exact (and
// -0 vs +0 or NaN drift would be caught).
func TestKernelMatchesDistanceSqBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, kind := range scanCores {
		for _, m := range denseScanMetrics {
			kernel := KernelForCore(m, kind)
			for _, dim := range []int{1, 2, 3, 8, 17, 64} {
				q := NewQuery(dim)
				for ci, pair := range kernelCasePairs(r, kind, dim) {
					a, b := pair[0], pair[1]
					want := DistanceSq(m, &a, &b)
					q.Bind(&b)
					ab := kernel(q, &a)
					q.Bind(&a)
					ba := kernel(q, &b)
					for _, got := range []float64{ab, ba} {
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%v %v dim=%d case=%d: kernel %v (bits %x) bound to b, %v (bits %x) bound to a; oracle %v (bits %x)",
								m, kind, dim, ci, ab, math.Float64bits(ab), ba, math.Float64bits(ba), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestKernelClosestIndexMatchesGeneric checks the argmin contract the
// tree relies on: over a slate of candidates, the kernel loop picks the
// same index as a DistanceSq oracle loop, ties resolving to the lowest
// index in both.
func TestKernelClosestIndexMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const dim = 4
	for _, kind := range scanCores {
		for _, m := range denseScanMetrics {
			kernel := KernelForCore(m, kind)
			q := NewQuery(dim)
			for trial := 0; trial < 50; trial++ {
				cands := make([]CF, 1+r.Intn(12))
				for i := range cands {
					cands[i] = randCFCore(r, dim, 1+r.Intn(20), 8, kind)
				}
				// Duplicate an entry occasionally to force exact ties.
				if len(cands) > 2 {
					cands[len(cands)-1] = cands[0].Clone()
				}
				query := randCFCore(r, dim, 1+r.Intn(20), 8, kind)
				q.Bind(&query)

				kBest, kD := 0, kernel(q, &cands[0])
				gBest, gD := 0, DistanceSq(m, &cands[0], &query)
				for i := 1; i < len(cands); i++ {
					if d := kernel(q, &cands[i]); d < kD {
						kBest, kD = i, d
					}
					if d := DistanceSq(m, &cands[i], &query); d < gD {
						gBest, gD = i, d
					}
				}
				if kBest != gBest {
					t.Fatalf("%v %v trial=%d: kernel picked %d, oracle picked %d", m, kind, trial, kBest, gBest)
				}
			}
		}
	}
}

// TestQueryBindValidation pins the Bind preconditions.
func TestQueryBindValidation(t *testing.T) {
	q := NewQuery(2)
	empty := New(2)
	mustPanic(t, "empty CF", func() { q.Bind(&empty) })
	wrongDim := FromPoint(vec.Of(1, 2, 3))
	mustPanic(t, "dimension mismatch", func() { q.Bind(&wrongDim) })
}

// TestKernelForValidation pins the metric switch under both cores.
func TestKernelForValidation(t *testing.T) {
	for _, kind := range scanCores {
		for _, m := range denseScanMetrics {
			if KernelForCore(m, kind) == nil {
				t.Fatalf("KernelForCore(%v, %v) = nil", m, kind)
			}
		}
		mustPanic(t, "invalid metric", func() { KernelForCore(Metric(99), kind) })
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
