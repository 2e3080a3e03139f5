package cf

import (
	"fmt"
	"math/rand"
	"testing"

	"birch/internal/pager"
)

// benchCands builds k random candidate CFs of dimension dim plus the
// block a metric-m tree keeps over them and a query, for the
// scan-vs-loop microbenchmarks.
func benchCands(m Metric, dim, k int) ([]CF, *Block, *Query) {
	return benchCandsCore(m, dim, k, CoreClassic)
}

// benchCandsCore is benchCands under the given CF core.
func benchCandsCore(m Metric, dim, k int, kind CoreKind) ([]CF, *Block, *Query) {
	rng := rand.New(rand.NewSource(42))
	cands := make([]CF, k)
	for i := range cands {
		c := NewCore(dim, kind)
		for p := 0; p < 3+rng.Intn(5); p++ {
			pt := make([]float64, dim)
			for j := range pt {
				pt[j] = rng.NormFloat64() * 10
			}
			c.AddPoint(pt)
		}
		cands[i] = c
	}
	blk := blockFor(m, kind, cands)
	q := NewQuery(dim)
	qc := cands[k/2].Clone()
	q.Bind(&qc)
	return cands, blk, q
}

func benchmarkScan(b *testing.B, m Metric, dim, k int) {
	cands, blk, q := benchCands(m, dim, k)
	kern := KernelForCore(m, CoreClassic)
	scan := ScanKernelForCore(m, CoreClassic)

	b.Run("entries", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			best, bestD := 0, kern(q, &cands[0])
			for j := 1; j < len(cands); j++ {
				if d := kern(q, &cands[j]); d < bestD {
					best, bestD = j, d
				}
			}
			sink += best
		}
		_ = sink
	})
	b.Run("fused", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			best, _ := scan(q, blk)
			sink += best
		}
		_ = sink
	})
}

func BenchmarkScanD2Dim2K64(b *testing.B)  { benchmarkScan(b, D2, 2, 64) }
func BenchmarkScanD2Dim8K48(b *testing.B)  { benchmarkScan(b, D2, 8, 48) }
func BenchmarkScanD2Dim32K14(b *testing.B) { benchmarkScan(b, D2, 32, 14) }
func BenchmarkScanD0Dim8K48(b *testing.B)  { benchmarkScan(b, D0, 8, 48) }
func BenchmarkScanD3Dim8K48(b *testing.B)  { benchmarkScan(b, D3, 8, 48) }
func BenchmarkScanD4Dim32K14(b *testing.B) { benchmarkScan(b, D4, 32, 14) }

// benchPageSize is the default page size (core.DefaultConfig), whose
// pager.BranchingFactor / pager.LeafCapacity give the node fan-outs the
// trees actually scan: K = 25/31 at d = 2, 11/12 at d = 8, 6/6 at d = 16.
const benchPageSize = 1024

// BenchmarkScanLanes times every dense fused scan — the single-
// accumulator reference (scan_ref_test.go) against the four-lane kernel
// — at those node shapes, plus the flat nearest-centroid scan at the
// same K. Sub-benchmark names are <metric>-<core>/d<dim>-K<k>/{ref,lanes};
// the betula core is listed only for the D2 and D3 scans it owns.
func BenchmarkScanLanes(b *testing.B) {
	for _, dim := range []int{2, 8, 16} {
		ks := []int{pager.BranchingFactor(benchPageSize, dim)}
		if l := pager.LeafCapacity(benchPageSize, dim); l != ks[0] {
			ks = append(ks, l)
		}
		for _, k := range ks {
			for _, kind := range scanCores {
				for _, m := range denseScanMetrics {
					if kind == CoreBETULA && m != D2 && m != D3 {
						continue
					}
					_, blk, q := benchCandsCore(m, dim, k, kind)
					name := fmt.Sprintf("%v-%v/d%d-K%d", m, kind, dim, k)
					benchScanPair(b, name, func() int { i, _ := refScanKernelForCore(m, kind)(q, blk); return i },
						func() int { i, _ := ScanKernelForCore(m, kind)(q, blk); return i })
				}
			}
			_, blk, q := benchCands(D0, dim, k)
			x := q.x0
			benchScanPair(b, fmt.Sprintf("nearest/d%d-K%d", dim, k),
				func() int { i, _ := refScanNearestX0(x, blk); return i },
				func() int { i, _ := ScanNearestX0(x, blk); return i })
		}
	}
}

func benchScanPair(b *testing.B, name string, ref, lanes func() int) {
	for _, v := range []struct {
		name string
		scan func() int
	}{{"ref", ref}, {"lanes", lanes}} {
		b.Run(name+"/"+v.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += v.scan()
			}
			_ = sink
		})
	}
}
