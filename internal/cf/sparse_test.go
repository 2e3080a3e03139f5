package cf

import (
	"math"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// sparseGatherPairs enumerates every (metric, core) pair whose gather
// scan exists — the exact switch in SparseScanKernelForCore. Tests range
// over this list so adding a pair without extending the battery fails
// TestSparseScanKernelForCoverage.
var sparseGatherPairs = []struct {
	m    Metric
	kind CoreKind
}{
	{DCos, CoreClassic},
	{DCos, CoreBETULA},
	{D2, CoreClassic},
}

// randSparse draws a sparse vector with exactly nnz distinct sorted
// indices and values in [-magnitude, magnitude]. Roughly one value in
// eight is an explicit zero, exercising the stored-zero case the type
// permits.
func randSparse(r *rand.Rand, dim, nnz int, magnitude float64) vec.Sparse {
	perm := r.Perm(dim)
	idx := make([]int32, nnz)
	for t, j := range perm[:nnz] {
		idx[t] = int32(j)
	}
	for a := 1; a < len(idx); a++ {
		for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
			idx[b], idx[b-1] = idx[b-1], idx[b]
		}
	}
	val := make([]float64, nnz)
	for t := range val {
		if r.Intn(8) == 0 {
			continue // explicit stored zero
		}
		val[t] = (r.Float64()*2 - 1) * magnitude
	}
	return vec.Sparse{D: dim, Idx: idx, Val: val}
}

// sparseCands builds a candidate slate under the given core whose CFs
// aggregate sparse points — centroids dense in the union of their
// members' supports, the shape the gather scans stream against.
func sparseCands(r *rand.Rand, dim, k int, kind CoreKind) []CF {
	cands := make([]CF, k)
	for i := range cands {
		c := NewCore(dim, kind)
		n := 1 + r.Intn(6)
		for p := 0; p < n; p++ {
			nnz := 1 + r.Intn(dim)
			c.AddPoint(randSparse(r, dim, nnz, 10).Dense())
		}
		cands[i] = c
	}
	return cands
}

// blockFor builds the slot-synced block a tree under metric m and the
// given core keeps over the candidates: NewBlockOpts, so exactly the
// slab families SlabsFor(m, kind) names.
func blockFor(m Metric, kind CoreKind, cands []CF) *Block {
	b := NewBlockOpts(cands[0].Dim(), len(cands), m, kind)
	for i := range cands {
		b.Append(&cands[i])
	}
	return b
}

// nnzGrid returns the nonzero counts the differential battery sweeps for
// a dimension: the 1%/5%/20% density ladder of the benchmark grid
// (floored at one), plus half-dense and fully dense, so the bit-identity
// claim is pinned well past the performance crossover.
func nnzGrid(dim int) []int {
	grid := []int{}
	for _, density := range []float64{0.01, 0.05, 0.20, 0.50, 1.0} {
		nnz := int(density * float64(dim))
		if nnz < 1 {
			nnz = 1
		}
		if len(grid) > 0 && grid[len(grid)-1] == nnz {
			continue
		}
		grid = append(grid, nnz)
	}
	return grid
}

// TestSparseScanMatchesDenseScanBitwise is the gather-kernel equivalence
// property: for every supported (metric, core) pair, across dimensions
// and the full density ladder, the gather scan bound via BindSparse
// returns the same argmin index and the Float64bits-identical distance
// as the dense fused scan bound via Bind on the densified point.
func TestSparseScanMatchesDenseScanBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for _, pair := range sparseGatherPairs {
		dense := ScanKernelForCore(pair.m, pair.kind)
		gather, ok := SparseScanKernelForCore(pair.m, pair.kind)
		if !ok {
			t.Fatalf("(%v, %v): no gather kernel", pair.m, pair.kind)
		}
		for _, dim := range []int{1, 2, 3, 8, 17, 64, 257} {
			q := NewQuery(dim)
			for _, nnz := range nnzGrid(dim) {
				for trial := 0; trial < 20; trial++ {
					mag := 10.0
					if trial%3 == 2 {
						mag = 1e8 // large-magnitude regime
					}
					cands := sparseCands(r, dim, 1+r.Intn(10), pair.kind)
					if len(cands) > 2 {
						cands[len(cands)-1] = cands[0].Clone() // force an exact tie
					}
					b := blockFor(pair.m, pair.kind, cands)

					sp := randSparse(r, dim, nnz, mag)
					spCF := FromSparsePoint(sp, pair.kind)
					q.Bind(&spCF)
					wantIdx, wantD := dense(q, b)
					q.BindSparse(&spCF, sp)
					if !q.Sparse() {
						t.Fatal("BindSparse did not attach the gather view")
					}
					gotIdx, gotD := gather(q, b)
					if gotIdx != wantIdx || math.Float64bits(gotD) != math.Float64bits(wantD) {
						t.Fatalf("(%v, %v) dim=%d nnz=%d trial=%d: gather (%d, %x) != dense (%d, %x)",
							pair.m, pair.kind, dim, nnz, trial,
							gotIdx, math.Float64bits(gotD), wantIdx, math.Float64bits(wantD))
					}
				}
			}
		}
	}
}

// TestSparseScanMatchesKernelLoop closes the triangle: the gather scan
// must also agree bit-for-bit with the original per-entry kernel loop
// (the pre-block reference), not just with the fused scan.
func TestSparseScanMatchesKernelLoop(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for _, pair := range sparseGatherPairs {
		kernel := KernelForCore(pair.m, pair.kind)
		gather, _ := SparseScanKernelForCore(pair.m, pair.kind)
		for _, dim := range []int{2, 9, 33} {
			q := NewQuery(dim)
			for trial := 0; trial < 30; trial++ {
				cands := sparseCands(r, dim, 1+r.Intn(8), pair.kind)
				b := blockFor(pair.m, pair.kind, cands)
				sp := randSparse(r, dim, 1+r.Intn(dim), 10)
				spCF := FromSparsePoint(sp, pair.kind)
				q.BindSparse(&spCF, sp)
				gotIdx, gotD := gather(q, b)
				wantIdx, wantD := referenceArgmin(kernel, q, cands)
				if gotIdx != wantIdx || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("(%v, %v) dim=%d trial=%d: gather (%d, %v) != kernel loop (%d, %v)",
						pair.m, pair.kind, dim, trial, gotIdx, gotD, wantIdx, wantD)
				}
			}
		}
	}
}

// TestCosScanMatchesKernelLoopBitwise extends the fused-scan equivalence
// property to the cosine metric under both cores — general (non-
// singleton) queries, exact ties, zero-vector edge cases.
func TestCosScanMatchesKernelLoopBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for _, kind := range []CoreKind{CoreClassic, CoreBETULA} {
		kernel := KernelForCore(DCos, kind)
		scan := ScanKernelForCore(DCos, kind)
		for _, dim := range []int{1, 2, 8, 17, 64} {
			q := NewQuery(dim)
			for trial := 0; trial < 40; trial++ {
				cands := sparseCands(r, dim, 1+r.Intn(12), kind)
				if trial%5 == 4 {
					// A zero-centroid candidate: the one-zero-norm branch.
					cands[0] = NewCore(dim, kind)
					cands[0].AddPoint(vec.New(dim))
				}
				if len(cands) > 2 {
					cands[len(cands)-1] = cands[0].Clone()
				}
				query := sparseCands(r, dim, 1, kind)[0]
				q.Bind(&query)
				b := blockFor(DCos, kind, cands)
				gotIdx, gotD := scan(q, b)
				wantIdx, wantD := referenceArgmin(kernel, q, cands)
				if gotIdx != wantIdx || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("(%v) dim=%d trial=%d: scan (%d, %v) != kernel loop (%d, %v)",
						kind, dim, trial, gotIdx, gotD, wantIdx, wantD)
				}
			}
		}
	}
}

// TestCosKernelMatchesDistanceSq pins the fused cosine kernel to the
// generic DistanceSq form on the same operands.
func TestCosKernelMatchesDistanceSq(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	for _, kind := range []CoreKind{CoreClassic, CoreBETULA} {
		kernel := KernelForCore(DCos, kind)
		for _, dim := range []int{1, 3, 16} {
			q := NewQuery(dim)
			for trial := 0; trial < 50; trial++ {
				a := sparseCands(r, dim, 1, kind)[0]
				c := sparseCands(r, dim, 1, kind)[0]
				q.Bind(&a)
				got := kernel(q, &c)
				want := DistanceSq(DCos, &c, &a)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("(%v) dim=%d trial=%d: kernel %v != DistanceSq %v", kind, dim, trial, got, want)
				}
			}
		}
	}
}

// TestSparseScanKernelForCoverage pins the gather switch: exactly the
// pairs in sparseGatherPairs have kernels, every other (metric, core)
// combination reports (nil, false).
func TestSparseScanKernelForCoverage(t *testing.T) {
	supported := func(m Metric, kind CoreKind) bool {
		for _, p := range sparseGatherPairs {
			if p.m == m && p.kind == kind {
				return true
			}
		}
		return false
	}
	for _, m := range []Metric{D0, D1, D2, D3, D4, DCos} {
		for _, kind := range []CoreKind{CoreClassic, CoreBETULA} {
			k, ok := SparseScanKernelForCore(m, kind)
			if ok != supported(m, kind) {
				t.Fatalf("SparseScanKernelForCore(%v, %v) ok=%v, want %v", m, kind, ok, supported(m, kind))
			}
			if ok && k == nil {
				t.Fatalf("SparseScanKernelForCore(%v, %v): ok with nil kernel", m, kind)
			}
		}
	}
}

// TestSparseGatherWins pins the crossover predicate to the constant.
func TestSparseGatherWins(t *testing.T) {
	d := 1000
	at := int(SparseGatherMaxDensity * float64(d))
	if !SparseGatherWins(at, d) {
		t.Fatalf("SparseGatherWins(%d, %d) = false at the crossover boundary", at, d)
	}
	if SparseGatherWins(at+1, d) {
		t.Fatalf("SparseGatherWins(%d, %d) = true above the crossover", at+1, d)
	}
	if !SparseGatherWins(1, d) {
		t.Fatal("SparseGatherWins(1, d) = false")
	}
}

// TestSetPointSparseMatchesSetPoint: the sparse singleton constructors
// store exactly the bits of their dense counterparts under both cores.
func TestSetPointSparseMatchesSetPoint(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	for _, kind := range []CoreKind{CoreClassic, CoreBETULA} {
		for _, dim := range []int{1, 7, 64} {
			for _, nnz := range nnzGrid(dim) {
				sp := randSparse(r, dim, nnz, 50)
				p := sp.Dense()

				want := NewCore(dim, kind)
				want.SetPoint(p)
				got := FromSparsePoint(sp, kind)
				if got.N != want.N || got.Kind() != want.Kind() {
					t.Fatalf("(%v) dim=%d nnz=%d: N/kind mismatch", kind, dim, nnz)
				}
				if math.Float64bits(got.SS) != math.Float64bits(want.SS) {
					t.Fatalf("(%v) dim=%d nnz=%d: SS %x != %x", kind, dim, nnz,
						math.Float64bits(got.SS), math.Float64bits(want.SS))
				}
				for j := range want.LS {
					if math.Float64bits(got.LS[j]) != math.Float64bits(want.LS[j]) {
						t.Fatalf("(%v) dim=%d nnz=%d: LS[%d] differs", kind, dim, nnz, j)
					}
				}

				// In-place reuse keeps the same bits and must not allocate.
				reuse := FromSparsePoint(randSparse(r, dim, 1, 5), kind)
				if allocs := testing.AllocsPerRun(100, func() { reuse.SetPointSparse(sp) }); allocs > 0 {
					t.Fatalf("(%v) dim=%d: SetPointSparse allocates %.1f/op on a warm CF", kind, dim, allocs)
				}
			}
		}
	}
}

// TestBlockSetPointSparseBitIdentical: the block's sparse slot writers
// produce word-identical slabs to their dense counterparts, across both
// cores and every slab set a tree block (one per metric) or a flat
// centroid block keeps, and stay slot-synced per CheckSync.
func TestBlockSetPointSparseBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	for _, kind := range []CoreKind{CoreClassic, CoreBETULA} {
		for mi := 0; mi <= len(denseScanMetrics); mi++ {
			for _, dim := range []int{1, 5, 33} {
				const k = 6
				var bd, bs *Block
				label := "centroid block"
				if mi < len(denseScanMetrics) {
					m := denseScanMetrics[mi]
					bd, bs = NewBlockOpts(dim, k, m, kind), NewBlockOpts(dim, k, m, kind)
					label = m.String()
				} else if kind == CoreClassic {
					bd, bs = NewCentroidBlock(dim, k), NewCentroidBlock(dim, k)
				} else {
					continue
				}
				sps := make([]vec.Sparse, k)
				for i := 0; i < k; i++ {
					sps[i] = randSparse(r, dim, 1+r.Intn(dim), 20)
					bd.AppendPoint(sps[i].Dense())
					bs.AppendPointSparse(sps[i])
				}
				// Overwrite a couple of slots through the Set form too.
				for _, i := range []int{0, k - 1} {
					sps[i] = randSparse(r, dim, 1+r.Intn(dim), 20)
					bd.SetPoint(i, sps[i].Dense())
					bs.SetPointSparse(i, sps[i])
				}
				compareSlabs(t, bd, bs)
				for i := 0; i < k; i++ {
					c := FromSparsePoint(sps[i], kind)
					if err := bs.CheckSync(i, &c); err != nil {
						t.Fatalf("(%v, %s) dim=%d slot %d out of sync: %v", kind, label, dim, i, err)
					}
				}

				// Warm-slot rewrites are allocation-free.
				if allocs := testing.AllocsPerRun(100, func() { bs.SetPointSparse(0, sps[0]) }); allocs > 0 {
					t.Fatalf("(%v, %s) dim=%d: SetPointSparse allocates %.1f/op", kind, label, dim, allocs)
				}
			}
		}
	}
}

// compareSlabs asserts every slab word of two blocks is bit-identical.
func compareSlabs(t *testing.T, a, b *Block) {
	t.Helper()
	if a.Len() != b.Len() || a.dim != b.dim || a.kind != b.kind {
		t.Fatal("block shapes differ")
	}
	for i := range a.n {
		if a.n[i] != b.n[i] {
			t.Fatalf("n[%d] differs", i)
		}
	}
	slabs := []struct {
		name string
		x, y []float64
	}{{"x0", a.x0, b.x0}, {"ls", a.ls, b.ls}, {"sb", a.sb, b.sb}, {"cn", a.cn, b.cn}}
	for _, s := range slabs {
		if len(s.x) != len(s.y) {
			t.Fatalf("%s slab lengths differ", s.name)
		}
		for j := range s.x {
			if math.Float64bits(s.x[j]) != math.Float64bits(s.y[j]) {
				t.Fatalf("%s[%d] differs: %x vs %x", s.name, j,
					math.Float64bits(s.x[j]), math.Float64bits(s.y[j]))
			}
		}
	}
}

// TestBindSparseContract pins the guardrails: non-singleton CFs and
// dimension mismatches panic, and a subsequent dense Bind drops the
// gather view.
func TestBindSparseContract(t *testing.T) {
	q := NewQuery(3)
	sp := vec.Sparse{D: 3, Idx: []int32{1}, Val: []float64{2}}
	c := FromSparsePoint(sp, CoreClassic)

	q.BindSparse(&c, sp)
	if !q.Sparse() {
		t.Fatal("gather view not attached")
	}
	q.Bind(&c)
	if q.Sparse() {
		t.Fatal("dense Bind kept a stale gather view")
	}

	two := c.Clone()
	two.AddPoint(vec.Of(1, 1, 1))
	mustPanic(t, "non-singleton", func() { q.BindSparse(&two, sp) })
	mustPanic(t, "dim mismatch", func() {
		q.BindSparse(&c, vec.Sparse{D: 4, Idx: []int32{0}, Val: []float64{1}})
	})
}

// FuzzSparseKernelParity drives the gather/dense bit-identity with
// fuzzer-chosen geometry: the input bytes pick the metric/core pair, the
// dimension, the query's support and values, and the candidate slate.
// Any reachable input where the gather scan disagrees with the dense
// fused scan — by index or by a single distance bit — is a crash.
func FuzzSparseKernelParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(2))
	f.Add(int64(2), uint8(1), uint8(16), uint8(5))
	f.Add(int64(3), uint8(2), uint8(64), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, pairSel, dimSel, nnzSel uint8) {
		pair := sparseGatherPairs[int(pairSel)%len(sparseGatherPairs)]
		dim := 1 + int(dimSel)%96
		nnz := 1 + int(nnzSel)%dim
		r := rand.New(rand.NewSource(seed))

		dense := ScanKernelForCore(pair.m, pair.kind)
		gather, ok := SparseScanKernelForCore(pair.m, pair.kind)
		if !ok {
			t.Fatalf("(%v, %v): no gather kernel", pair.m, pair.kind)
		}
		cands := sparseCands(r, dim, 1+r.Intn(8), pair.kind)
		b := blockFor(pair.m, pair.kind, cands)
		sp := randSparse(r, dim, nnz, 100)
		spCF := FromSparsePoint(sp, pair.kind)

		q := NewQuery(dim)
		q.Bind(&spCF)
		wantIdx, wantD := dense(q, b)
		q.BindSparse(&spCF, sp)
		gotIdx, gotD := gather(q, b)
		if gotIdx != wantIdx || math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("(%v, %v) dim=%d nnz=%d: gather (%d, %x) != dense (%d, %x)",
				pair.m, pair.kind, dim, nnz,
				gotIdx, math.Float64bits(gotD), wantIdx, math.Float64bits(wantD))
		}
	})
}
