package cf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// referenceArgmin is the per-entry kernel loop ScanArgmin replaces: the
// exact code shape Tree.closestEntry used before blocks, down to the
// strict-< tie rule.
func referenceArgmin(k Kernel, q *Query, cands []CF) (int, float64) {
	best, bestD := 0, k(q, &cands[0])
	for i := 1; i < len(cands); i++ {
		if d := k(q, &cands[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// denseScanMetrics and scanCores span every (metric, core) pair a dense
// fused scan serves.
var (
	denseScanMetrics = []Metric{D0, D1, D2, D3, D4, DCos}
	scanCores        = []CoreKind{CoreClassic, CoreBETULA}
)

// randCFCore builds a valid CF of the given backend by folding n random
// points around a center of the given magnitude, so Cauchy–Schwarz holds
// by construction and large magnitudes exercise the cancellation regime
// the clamps guard.
func randCFCore(r *rand.Rand, dim, n int, magnitude float64, kind CoreKind) CF {
	c := NewCore(dim, kind)
	center := vec.New(dim)
	for d := range center {
		center[d] = (r.Float64() - 0.5) * 2 * magnitude
	}
	p := vec.New(dim)
	for i := 0; i < n; i++ {
		for d := range p {
			p[d] = center[d] + r.NormFloat64()
		}
		c.AddPoint(p)
	}
	return c
}

// laneCands returns k candidates and a query in one of four regimes:
// random clusters, singletons, near-identical at magnitude 1000 (the
// query is candidate 0 plus one nudged point, so the D2 radicand
// cancels slightly negative — the clamp case) and far-offset clusters
// at 1e8.
func laneCands(r *rand.Rand, dim, k, regime int, kind CoreKind) ([]CF, CF) {
	mag := 10.0
	switch regime {
	case 1:
		mag = 5
	case 2:
		mag = 1000
	case 3:
		mag = 1e8
	}
	cands := make([]CF, k)
	for i := range cands {
		n := 1
		if regime != 1 {
			n = 1 + r.Intn(40)
		}
		cands[i] = randCFCore(r, dim, n, mag, kind)
	}
	query := randCFCore(r, dim, 1+r.Intn(30), 10, kind)
	if regime == 2 {
		query = cands[0].Clone()
		query.AddPoint(vec.Add(cands[0].Centroid(), smallBump(dim)))
	}
	return cands, query
}

// nonFiniteCF returns a candidate whose distance to a finite query is
// non-finite: which = 0 overflows (components near 1e200, so squares
// and square sums reach +Inf), 1 carries a +Inf component and 2 a NaN
// one.
func nonFiniteCF(r *rand.Rand, dim, which int, kind CoreKind) CF {
	p := vec.New(dim)
	for j := range p {
		p[j] = (r.Float64() - 0.5) * 4e200
	}
	switch which % 3 {
	case 1:
		p[r.Intn(dim)] = math.Inf(1)
	case 2:
		p[r.Intn(dim)] = math.NaN()
	}
	c := NewCore(dim, kind)
	c.AddPoint(p)
	return c
}

// plantTie makes the kernel loop's winner appear twice, at slots s < t
// with t ≡ lane (mod 4), so the later copy sits in the given lane of a
// four-candidate step: the scan must keep s. It reports false when k
// has no such slot.
func plantTie(r *rand.Rand, kernel Kernel, q *Query, cands []CF, lane int) bool {
	var slots []int
	for t := lane; t < len(cands); t += 4 {
		if t > 0 {
			slots = append(slots, t)
		}
	}
	if len(slots) == 0 {
		return false
	}
	t := slots[r.Intn(len(slots))]
	s := r.Intn(t)
	a, _ := referenceArgmin(kernel, q, cands)
	cands[s], cands[a] = cands[a], cands[s]
	cands[t] = cands[s].Clone()
	return true
}

// checkScanLanes holds the production scan for (m, kind) to the
// single-accumulator reference scan and to the per-entry kernel loop:
// same index, same distance bits.
func checkScanLanes(m Metric, kind CoreKind, q *Query, cands []CF) error {
	b := blockFor(m, kind, cands)
	ki, kd := referenceArgmin(KernelForCore(m, kind), q, cands)
	for _, s := range []struct {
		name string
		scan ScanKernel
	}{{"lane scan", ScanKernelForCore(m, kind)}, {"reference scan", refScanKernelForCore(m, kind)}} {
		i, d := s.scan(q, b)
		if i != ki || math.Float64bits(d) != math.Float64bits(kd) {
			return fmt.Errorf("%v/%v dim=%d k=%d: %s (%d, %v bits %x), kernel loop (%d, %v bits %x)",
				m, kind, b.Dim(), len(cands), s.name, i, d, math.Float64bits(d), ki, kd, math.Float64bits(kd))
		}
	}
	return nil
}

// TestScanMatchesKernelLoopBitwise is the fused-scan equivalence battery:
// for every (metric, core) pair, every K from 1 to 40 (each K mod 4 of
// the four-lane steps, and the d = 2 leaf capacity 31), four value
// regimes, an exact tie planted at each lane position and a non-finite
// candidate planted at each lane position, the four-lane scan returns
// the same index and the bit-identical distance as the single-
// accumulator reference scan and the per-entry kernel loop.
func TestScanMatchesKernelLoopBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for _, kind := range scanCores {
		for _, m := range denseScanMetrics {
			kernel := KernelForCore(m, kind)
			for _, dim := range []int{1, 2, 3, 8, 16, 17, 64} {
				q := NewQuery(dim)
				for k := 1; k <= 40; k++ {
					for regime := 0; regime < 4; regime++ {
						cands, query := laneCands(r, dim, k, regime, kind)
						q.Bind(&query)
						if err := checkScanLanes(m, kind, q, cands); err != nil {
							t.Fatalf("regime %d: %v", regime, err)
						}
						for lane := 0; lane < 4; lane++ {
							tied := append([]CF(nil), cands...)
							if plantTie(r, kernel, q, tied, lane) {
								if err := checkScanLanes(m, kind, q, tied); err != nil {
									t.Fatalf("regime %d, tie in lane %d: %v", regime, lane, err)
								}
							}
							if lane < k {
								bad := append([]CF(nil), cands...)
								slot := lane + 4*r.Intn((k-lane+3)/4)
								bad[slot] = nonFiniteCF(r, dim, regime+lane, kind)
								if err := checkScanLanes(m, kind, q, bad); err != nil {
									t.Fatalf("regime %d, non-finite slot %d: %v", regime, slot, err)
								}
							}
						}
					}
				}
			}
		}
	}
}

func smallBump(dim int) vec.Vector {
	b := vec.New(dim)
	b[0] = 1e-9
	return b
}

// TestScanAfterIncrementalMaintenance checks the property that matters to
// the tree: after slots are refreshed incrementally (Set after merges,
// Append, Remove), the scan still agrees bit-for-bit with the kernel loop
// over the mirrored entries — i.e. incremental maintenance is
// indistinguishable from rebuilding the slab.
func TestScanAfterIncrementalMaintenance(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	const dim = 6
	for _, m := range []Metric{D0, D1, D2, D3, D4} {
		kernel := KernelForCore(m, CoreClassic)
		scan := ScanKernelForCore(m, CoreClassic)
		q := NewQuery(dim)

		cands := make([]CF, 8)
		for i := range cands {
			cands[i] = randCF(r, dim, 1+r.Intn(20), 20)
		}
		b := blockFor(m, CoreClassic, cands)

		for step := 0; step < 200; step++ {
			switch r.Intn(4) {
			case 0: // absorb: merge into a slot, refresh it
				i := r.Intn(len(cands))
				add := randCF(r, dim, 1+r.Intn(4), 20)
				cands[i].Merge(&add)
				b.Set(i, &cands[i])
			case 1: // append a fresh entry
				c := randCF(r, dim, 1+r.Intn(20), 20)
				cands = append(cands, c)
				b.Append(&cands[len(cands)-1])
			case 2: // remove, keeping at least one entry
				if len(cands) > 1 {
					i := r.Intn(len(cands))
					cands = append(cands[:i], cands[i+1:]...)
					b.Remove(i)
				}
			default: // scan and compare
				query := randCF(r, dim, 1+r.Intn(10), 20)
				q.Bind(&query)
				gotIdx, gotD := scan(q, b)
				wantIdx, wantD := referenceArgmin(kernel, q, cands)
				if gotIdx != wantIdx || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("%v step=%d: scan (%d, %v) != kernel loop (%d, %v)",
						m, step, gotIdx, gotD, wantIdx, wantD)
				}
			}
		}
	}
}

// TestScanKernelForValidation pins the metric switch under both cores.
func TestScanKernelForValidation(t *testing.T) {
	for _, kind := range scanCores {
		for _, m := range denseScanMetrics {
			if ScanKernelForCore(m, kind) == nil {
				t.Fatalf("ScanKernelForCore(%v, %v) = nil", m, kind)
			}
		}
		mustPanic(t, "invalid metric", func() { ScanKernelForCore(Metric(99), kind) })
	}
}
