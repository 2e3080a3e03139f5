package cftree

import (
	"math/rand"
	"testing"

	"birch/internal/cf"
	"birch/internal/vec"
)

// randSparsePoint draws a sparse vector with nnz distinct sorted indices.
func randSparsePoint(r *rand.Rand, dim, nnz int) vec.Sparse {
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
		val[t] = 1 + r.Float64()*3
	}
	return vec.Sparse{D: dim, Idx: idx, Val: val}
}

// TestInsertSparseMatchesDenseInsert is the cross-path tree property the
// whole sparse fast path rests on: streaming sparse points through
// InsertSparse builds a tree bit-identical — structure, counters, every
// CF word, the leaf-chain permutation — to streaming their
// densifications through Insert. Covered across the gather metrics
// (DCos both cores, D2 classic), a densify-fallback metric (D0, whose
// algebra admits no gather), and densities on both sides of the
// SparseGatherMaxDensity crossover.
func TestInsertSparseMatchesDenseInsert(t *testing.T) {
	const dim = 24
	cases := []struct {
		name   string
		metric cf.Metric
		core   cf.CoreKind
	}{
		{"dcos_classic", cf.DCos, cf.CoreClassic},
		{"dcos_betula", cf.DCos, cf.CoreBETULA},
		{"d2_classic", cf.D2, cf.CoreClassic},
		{"d0_classic", cf.D0, cf.CoreClassic},
	}
	for _, tc := range cases {
		// nnz 2 is far under the crossover (gather path when supported);
		// nnz dim is density 1.0, always the dense-descent fallback.
		for _, nnz := range []int{2, dim / 2, dim} {
			r := rand.New(rand.NewSource(int64(91 + nnz)))
			p := defaultParams()
			p.Dim = dim
			p.Metric = tc.metric
			p.Core = tc.core
			p.Threshold = 1.5
			dense := mustTree(t, p)
			sparse := mustTree(t, p)

			for i := 0; i < 400; i++ {
				sp := randSparsePoint(r, dim, nnz)
				dense.Insert(cf.FromSparsePoint(sp, tc.core))
				sparse.InsertSparse(sp)
			}
			equalTreesBitwise(t, tc.name, dense, sparse)
			if err := sparse.CheckInvariants(); err != nil {
				t.Fatalf("%s nnz=%d: invariants: %v", tc.name, nnz, err)
			}
		}
	}
}

// TestInsertSparseNoSplitMatchesDense: the delay-split sparse variant
// refuses exactly when the dense variant refuses and leaves both trees
// identical either way.
func TestInsertSparseNoSplitMatchesDense(t *testing.T) {
	const dim = 8
	r := rand.New(rand.NewSource(97))
	p := defaultParams()
	p.Dim = dim
	p.Metric = cf.DCos
	p.Threshold = 0.8
	dense := mustTree(t, p)
	sparse := mustTree(t, p)

	refusals := 0
	for i := 0; i < 300; i++ {
		sp := randSparsePoint(r, dim, 1+r.Intn(dim))
		errD := dense.InsertNoSplit(cf.FromSparsePoint(sp, p.Core))
		errS := sparse.InsertSparseNoSplit(sp)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("insert %d: dense err %v, sparse err %v", i, errD, errS)
		}
		if errS != nil {
			refusals++
		}
	}
	if refusals == 0 {
		t.Fatal("workload never hit the would-split refusal; test is vacuous")
	}
	equalTreesBitwise(t, "nosplit", dense, sparse)
}

// TestInsertSparseAbsorbAllocs is the sparse half of the Phase 1
// allocation gate: once the tree has converged, InsertSparse must not
// touch the heap — the densified scratch CF, the gather view, and the
// descent path are all reused state. Covered on both sides of the
// crossover (gather descent and densified fallback).
func TestInsertSparseAbsorbAllocs(t *testing.T) {
	const dim = 16
	for _, nnz := range []int{2, dim} {
		r := rand.New(rand.NewSource(98))
		p := defaultParams()
		p.Dim = dim
		p.Metric = cf.DCos
		p.Threshold = 100 // everything absorbs after warm-up
		tr := mustTree(t, p)

		for i := 0; i < 256; i++ {
			tr.InsertSparse(randSparsePoint(r, dim, 1+r.Intn(dim)))
		}
		// One fixed point streamed to a steady state, as in the dense gate.
		pt := randSparsePoint(r, dim, nnz)
		for i := 0; i < 200; i++ {
			tr.InsertSparse(pt)
		}
		leavesBefore := tr.LeafEntries()
		allocs := testing.AllocsPerRun(500, func() { tr.InsertSparse(pt) })
		if got := tr.LeafEntries(); got != leavesBefore {
			t.Fatalf("nnz=%d: leaf entries grew %d -> %d; measured inserts were not absorbs", nnz, leavesBefore, got)
		}
		if allocs > 0 {
			t.Fatalf("nnz=%d: sparse absorb path allocates %.1f allocs/op, want 0", nnz, allocs)
		}
	}
}
