package main

import (
	"fmt"
	"math"
	"os"

	"birch/internal/cf"
	"birch/internal/cftree"
	"birch/internal/dataset"
	"birch/internal/pager"
	"birch/internal/vec"
)

// sparseFile records the sparse fast-path workloads: Zipfian document
// vectors (dataset.SparseDocs) scanned against a CF block under the
// dense fused kernel and the sparse gather kernel, across the
// dimensionality × density grid, plus the density sweeps that pin the
// cf.SparseGatherMaxDensity crossover and two end-to-end tree-insert
// pairs. Every dense/sparse pair must agree bit-for-bit on every scan —
// the harness fatals on the first divergence, so a speedup can never
// come from doing different work.
const sparseFile = "BENCH_sparse.json"

// sparseSpec is one scan workload: dimensionality (vocabulary size),
// nonzeros per document, document count, and the number of block
// entries each scan streams past.
type sparseSpec struct {
	Name    string
	Metric  cf.Metric
	Dim     int
	NNZ     int
	N       int
	Entries int
	Seed    int64
}

// sparseSpecs is the d ∈ {64, 256, 1024} × nnz/d ∈ {1%, 5%, 20%} grid
// under cosine, plus one D2 pair (the other metric with a gather form)
// at the center of the grid.
func sparseSpecs(quick bool) []sparseSpec {
	div := 1
	if quick {
		div = 10
	}
	return []sparseSpec{
		{"sparse_scan_d64_nnz1", cf.DCos, 64, 1, 20000 / div, 128, 401},
		{"sparse_scan_d64_nnz3", cf.DCos, 64, 3, 20000 / div, 128, 402},
		{"sparse_scan_d64_nnz13", cf.DCos, 64, 13, 20000 / div, 128, 403},
		{"sparse_scan_d256_nnz3", cf.DCos, 256, 3, 8000 / div, 160, 404},
		{"sparse_scan_d256_nnz13", cf.DCos, 256, 13, 8000 / div, 160, 405},
		{"sparse_scan_d256_nnz51", cf.DCos, 256, 51, 8000 / div, 160, 406},
		{"sparse_scan_d1024_nnz10", cf.DCos, 1024, 10, 3000 / div, 192, 407},
		{"sparse_scan_d1024_nnz51", cf.DCos, 1024, 51, 3000 / div, 192, 408},
		{"sparse_scan_d1024_nnz205", cf.DCos, 1024, 205, 3000 / div, 192, 409},
		{"sparse_scan_d256_nnz13_d2", cf.D2, 256, 13, 8000 / div, 160, 410},
	}
}

// sparseTreeSpec is one end-to-end pair: the full Phase 1 descent
// (cftree.Tree) fed the identical document stream through the dense
// insert path and through InsertSparse.
type sparseTreeSpec struct {
	Name      string
	Dim       int
	NNZ       int
	N         int
	PageSize  int
	Threshold float64
	Seed      int64
}

// Page sizes scale with the dimension so the fan-out stays ~15 — a
// 4 KB page holds fewer than two dim-1024 CF entries, and the min-2
// fan-out clamp degenerates the tree into one root split per insert.
// Thresholds are Euclidean-diameter bounds (the absorb test is metric-
// independent) sized so the measured re-insert pass absorbs ~90% of the
// stream into a converged multi-level tree rather than appending.
func sparseTreeSpecs(quick bool) []sparseTreeSpec {
	div := 1
	if quick {
		div = 10
	}
	return []sparseTreeSpec{
		{"sparse_tree_d256_nnz13", 256, 13, 8000 / div, 32 << 10, 4.5, 421},
		{"sparse_tree_d1024_nnz51", 1024, 51, 3000 / div, 128 << 10, 10, 422},
	}
}

// sparseDocsFor generates the spec's document set: 64 Zipfian topics,
// fixed seed, exactly nnz nonzeros per document.
func sparseDocsFor(dim, nnz, n int, seed int64) []vec.Sparse {
	const topics = 64
	nPer := (n + topics - 1) / topics
	docs, _ := dataset.SparseDocs(dim, topics, nPer, nnz, 1.1, seed)
	return docs[:n]
}

// buildSparseBlock folds the documents round-robin into `entries`
// merged CFs — centroids dense enough to stand in for converged leaf
// entries — and packs them into the scan block a metric-m tree keeps.
func buildSparseBlock(docs []vec.Sparse, entries int, m cf.Metric, kind cf.CoreKind) *cf.Block {
	dim := docs[0].Dim()
	if entries > len(docs) {
		entries = len(docs) // quick mode: never leave an entry empty
	}
	cfs := make([]cf.CF, entries)
	for i := range cfs {
		cfs[i] = cf.NewCore(dim, kind)
	}
	for i := range docs {
		c := cf.FromSparsePoint(docs[i], kind)
		cfs[i%entries].Merge(&c)
	}
	b := cf.NewBlockOpts(dim, entries, m, kind)
	for i := range cfs {
		b.Append(&cfs[i])
	}
	return b
}

// runSparseWorkloads measures the scan grid, the crossover sweeps, and
// the end-to-end tree pairs.
func runSparseWorkloads(quick bool, reps, _ int) map[string]Workload {
	out := make(map[string]Workload)
	for _, spec := range sparseSpecs(quick) {
		fmt.Fprintf(os.Stderr, "sparse: %s...\n", spec.Name)
		out[spec.Name] = runSparseScan(spec, reps)
	}
	for _, dim := range []int{64, 256, 1024} {
		name := fmt.Sprintf("sparse_crossover_d%d", dim)
		fmt.Fprintf(os.Stderr, "sparse: %s...\n", name)
		out[name] = runSparseCrossover(dim, quick, reps)
	}
	for _, spec := range sparseTreeSpecs(quick) {
		fmt.Fprintf(os.Stderr, "sparse: %s...\n", spec.Name)
		out[spec.Name] = runSparseTree(spec, reps)
	}
	return out
}

// runSparseScan times one dense-vs-gather scan pair. Protocol: pack the
// merged-centroid block once, then for each document bind the query and
// run the whole-block argmin scan — the exact inner loop of a Phase 1
// descent step. The dense pass densifies the document into the query
// scratch (SetPointSparse + Bind, identical to what the tree's dense
// path does); the gather pass adds BindSparse aliasing. Before any
// timing, every document is scanned under both kernels and the results
// compared bit-for-bit.
func runSparseScan(spec sparseSpec, reps int) Workload {
	const kind = cf.CoreClassic
	docs := sparseDocsFor(spec.Dim, spec.NNZ, spec.N, spec.Seed)
	blk := buildSparseBlock(docs, spec.Entries, spec.Metric, kind)
	dense := cf.ScanKernelForCore(spec.Metric, kind)
	gather, ok := cf.SparseScanKernelForCore(spec.Metric, kind)
	if !ok {
		fatal(fmt.Errorf("sparse %s: no gather kernel for metric %v", spec.Name, spec.Metric))
	}

	q := cf.NewQuery(spec.Dim)
	spCF := cf.NewCore(spec.Dim, kind)

	// Parity self-check: the gather kernel must be bit-identical to the
	// fused dense scan on every document before its speed means anything.
	for i, sp := range docs {
		spCF.SetPointSparse(sp)
		q.Bind(&spCF)
		di, dd := dense(q, blk)
		q.BindSparse(&spCF, sp)
		gi, gd := gather(q, blk)
		if di != gi || math.Float64bits(dd) != math.Float64bits(gd) {
			fatal(fmt.Errorf("sparse %s: doc %d diverged: dense (%d, %x) vs gather (%d, %x)",
				spec.Name, i, di, math.Float64bits(dd), gi, math.Float64bits(gd)))
		}
	}

	w := Workload{
		Dim: spec.Dim, NNZ: spec.NNZ, Points: len(docs), Seed: spec.Seed,
		Metric: spec.Metric.String(), LeafEntries: blk.Len(),
	}
	denseNs, gatherNs := math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		s := measure(len(docs), func() {
			for _, sp := range docs {
				spCF.SetPointSparse(sp)
				q.Bind(&spCF)
				dense(q, blk)
			}
		})
		denseNs = math.Min(denseNs, s)
		s = measure(len(docs), func() {
			for _, sp := range docs {
				spCF.SetPointSparse(sp)
				q.BindSparse(&spCF, sp)
				gather(q, blk)
			}
		})
		gatherNs = math.Min(gatherNs, s)
	}
	w.NsPerPoint = gatherNs
	w.DenseNsPerPoint = denseNs
	if denseNs > 0 {
		w.SparseVsDense = gatherNs / denseNs
	}
	return w
}

// runSparseCrossover sweeps density at fixed dimensionality and locates
// where the gather kernel stops beating the fused dense scan: the
// measured cf.SparseGatherMaxDensity. The crossover is the linear
// interpolation of the first sweep interval whose gather/dense ratio
// crosses 1 (clamped to the last density when the gather wins the whole
// sweep).
func runSparseCrossover(dim int, quick bool, reps int) Workload {
	const kind = cf.CoreClassic
	n, entries := 1500, 192
	if quick {
		n = 150
	}
	densities := []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.65, 0.80, 0.90, 1.0}
	ratios := make([]float64, len(densities))
	for di, density := range densities {
		nnz := int(density * float64(dim))
		if nnz < 1 {
			nnz = 1
		}
		spec := sparseSpec{
			Name: fmt.Sprintf("crossover_d%d_p%g", dim, density), Metric: cf.DCos,
			Dim: dim, NNZ: nnz, N: n, Entries: entries, Seed: 430 + int64(di),
		}
		ratios[di] = runSparseScan(spec, reps).SparseVsDense
		fmt.Fprintf(os.Stderr, "sparse:   d=%d density=%.2f gather/dense=%.3f\n", dim, density, ratios[di])
	}
	cross := densities[len(densities)-1]
	for i := 1; i < len(ratios); i++ {
		if ratios[i] >= 1 && ratios[i-1] < 1 {
			// Interpolate the density where the ratio hits 1.
			t := (1 - ratios[i-1]) / (ratios[i] - ratios[i-1])
			cross = densities[i-1] + t*(densities[i]-densities[i-1])
			break
		}
	}
	return Workload{
		Dim: dim, Points: n, Seed: 430, Metric: cf.DCos.String(),
		CrossoverDensity: cross,
	}
}

// runSparseTree measures the end-to-end pair: the same document stream
// through the dense insert path and through Tree.InsertSparse on
// separate but bit-identical trees. Each mode builds its tree from the
// stream (warm-up), then re-inserts the stream as the measured pass, so
// the measured inserts run descent and absorb on a converged tree; both
// modes must agree on the final leaf count.
func runSparseTree(spec sparseTreeSpec, reps int) Workload {
	docs := sparseDocsFor(spec.Dim, spec.NNZ, spec.N, spec.Seed)
	dense := make([]vec.Vector, len(docs))
	for i, sp := range docs {
		dense[i] = sp.Dense()
	}

	w := Workload{Dim: spec.Dim, NNZ: spec.NNZ, Points: len(docs), Seed: spec.Seed, Metric: cf.DCos.String()}
	denseNs, sparseNs := math.Inf(1), math.Inf(1)
	var leaves [2]int
	for r := 0; r < reps; r++ {
		// Dense mode.
		tr := newCosTree(spec.Dim, spec.PageSize, spec.Threshold)
		scratch := cf.New(spec.Dim)
		for _, p := range dense {
			scratch.SetPoint(p)
			tr.Insert(scratch)
		}
		s := measure(len(dense), func() {
			for _, p := range dense {
				scratch.SetPoint(p)
				tr.Insert(scratch)
			}
		})
		denseNs = math.Min(denseNs, s)
		leaves[0] = tr.LeafEntries()

		// Sparse mode.
		tr = newCosTree(spec.Dim, spec.PageSize, spec.Threshold)
		for _, sp := range docs {
			tr.InsertSparse(sp)
		}
		s = measure(len(docs), func() {
			for _, sp := range docs {
				tr.InsertSparse(sp)
			}
		})
		sparseNs = math.Min(sparseNs, s)
		leaves[1] = tr.LeafEntries()
	}
	if leaves[0] != leaves[1] {
		fatal(fmt.Errorf("sparse %s: insert paths diverged: %d vs %d leaf entries",
			spec.Name, leaves[0], leaves[1]))
	}
	w.NsPerPoint = sparseNs
	w.DenseNsPerPoint = denseNs
	if denseNs > 0 {
		w.SparseVsDense = sparseNs / denseNs
	}
	w.LeafEntries = leaves[0]
	return w
}

// newCosTree builds an empty cosine tree with page-derived fan-outs, a
// diameter threshold and an effectively unlimited memory budget, so the
// tree pairs isolate descent and absorb, not threshold escalation.
func newCosTree(dim, pageSize int, threshold float64) *cftree.Tree {
	pgr := pager.MustNew(pager.Config{
		PageSize:     pageSize,
		MemoryBudget: 1 << 30,
		DiskBudget:   1 << 20,
	})
	tr, err := cftree.New(cftree.Params{
		Dim:               dim,
		Branching:         pager.BranchingFactor(pageSize, dim),
		LeafCap:           pager.LeafCapacity(pageSize, dim),
		Threshold:         threshold,
		ThresholdKind:     cf.ThresholdDiameter,
		Metric:            cf.DCos,
		MergingRefinement: true,
	}, pgr)
	if err != nil {
		fatal(err)
	}
	return tr
}

// verifySparse checks every grid workload, the three crossover sweeps,
// and both tree pairs are present with sane measurements.
func verifySparse(rep *Report, quick bool) error {
	for _, spec := range sparseSpecs(quick) {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("missing workload %q", spec.Name)
		}
		if w.NsPerPoint <= 0 || w.DenseNsPerPoint <= 0 || w.SparseVsDense <= 0 {
			return fmt.Errorf("workload %q has degenerate measurements", spec.Name)
		}
	}
	for _, dim := range []int{64, 256, 1024} {
		name := fmt.Sprintf("sparse_crossover_d%d", dim)
		w, ok := rep.Workloads[name]
		if !ok {
			return fmt.Errorf("missing workload %q", name)
		}
		if w.CrossoverDensity <= 0 || w.CrossoverDensity > 1 {
			return fmt.Errorf("workload %q has degenerate crossover %g", name, w.CrossoverDensity)
		}
	}
	for _, spec := range sparseTreeSpecs(quick) {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("missing workload %q", spec.Name)
		}
		if w.NsPerPoint <= 0 || w.DenseNsPerPoint <= 0 || w.SparseVsDense <= 0 {
			return fmt.Errorf("workload %q has degenerate measurements", spec.Name)
		}
	}
	return nil
}
