package main

// Parallel-tail workloads (BENCH_tail.json): the Phase 4 refinement inner
// loop and the nearest-centroid serving path.
//
// Refine workloads time repeated nearest-centroid assignment passes over
// a fixed point set — exactly the shape of Phase 4 with RefinePasses > 1
// — three ways: the retained pre-parallel reference implementation
// (kmeans.AssignPointsReference: sequential, fresh buffers per pass, the
// brute loop per point), the production Assigner at one worker, and the
// production Assigner at eight. All three produce the same labels; the
// deltas are pure implementation: the certified nearest-centroid search,
// zero-alloc buffer reuse, and (on multi-core hosts) the chunked fan-out.
// Meta records GOMAXPROCS and NumCPU — on a single-CPU host the W8
// column measures scheduling overhead, not speedup, and the honest gain
// is the ref→par ratio.
//
// Classify workloads time one query stream against a fixed centroid set
// three ways — the brute kmeans.NearestBrute loop, kmeans.Finder.Nearest
// and the batch path Finder.NearestBatch (index built once, fanned across
// workers) — after checking that the finder returns the brute loop's
// index and distance bits for every query, ties included (the lattice
// centroids have exact ties).

import (
	"fmt"
	"math"

	"birch/internal/kmeans"
	"birch/internal/vec"
)

const tailFile = "BENCH_tail.json"

type tailSpec struct {
	Name string
	Dim  int
	N    int
	K    int
	Seed int64
}

func tailRefineSpecs(quick bool) []tailSpec {
	div := 1
	if quick {
		div = 10
	}
	return []tailSpec{
		{"tail_refine_d2_k10", 2, 200000 / div, 10, 301},
		{"tail_refine_d2_k100", 2, 200000 / div, 100, 302},
		{"tail_refine_d8_k250", 8, 60000 / div, 250, 303},
	}
}

func tailClassifySpecs(quick bool) []tailSpec {
	div := 1
	if quick {
		div = 10
	}
	return []tailSpec{
		{"tail_classify_d2_k8", 2, 200000 / div, 8, 311},
		{"tail_classify_d2_k32", 2, 200000 / div, 32, 312},
		{"tail_classify_d2_k64", 2, 100000 / div, 64, 313},
		{"tail_classify_d8_k128", 8, 50000 / div, 128, 314},
		{"tail_classify_d8_k250", 8, 50000 / div, 250, 315},
	}
}

// tailRefinePasses is how many assignment passes each refine measurement
// makes; > 1 so the Assigner's steady state (reused buffers) dominates,
// as it does in multi-pass Phase 4.
const tailRefinePasses = 4

func runTailWorkloads(quick bool, reps, workers int) map[string]Workload {
	out := make(map[string]Workload)

	for _, spec := range tailRefineSpecs(quick) {
		pts := blobs(spec.Seed, spec.Dim, spec.K, spec.N)
		centroids := tailCentroids(spec.Dim, spec.K)
		total := spec.N * tailRefinePasses

		w := Workload{Dim: spec.Dim, Points: spec.N, Seed: spec.Seed, K: spec.K, Workers: workers}
		refNs, par1Ns, par8Ns := math.Inf(1), math.Inf(1), math.Inf(1)
		var refAssigner, parAssigner kmeans.Assigner
		for r := 0; r < reps; r++ {
			s := measure(total, func() {
				for p := 0; p < tailRefinePasses; p++ {
					kmeans.AssignPointsReference(pts, centroids, 0)
				}
			})
			refNs = math.Min(refNs, s)

			s = measure(total, func() {
				for p := 0; p < tailRefinePasses; p++ {
					refAssigner.Assign(pts, centroids, 0, 1)
				}
			})
			par1Ns = math.Min(par1Ns, s)

			s = measure(total, func() {
				for p := 0; p < tailRefinePasses; p++ {
					parAssigner.Assign(pts, centroids, 0, workers)
				}
			})
			par8Ns = math.Min(par8Ns, s)
		}
		w.RefNsPerPoint = refNs
		w.NsPerPoint = par1Ns
		w.ParNsPerPoint = par8Ns
		if par8Ns > 0 {
			w.SpeedupVsRef = refNs / par8Ns
		}
		out[spec.Name] = w
	}

	for _, spec := range tailClassifySpecs(quick) {
		queries := blobs(spec.Seed, spec.Dim, spec.K, spec.N)
		centroids := tailCentroids(spec.Dim, spec.K)

		w := Workload{Dim: spec.Dim, Points: spec.N, Seed: spec.Seed, K: spec.K, Workers: workers}
		finder := kmeans.NewFinder(centroids)
		idx := make([]int, spec.N)
		d2 := make([]float64, spec.N)
		finder.NearestBatch(queries, idx, d2, workers)
		for i, q := range queries {
			wi, wd := kmeans.NearestBrute(centroids, q)
			fi, fd := finder.Nearest(q)
			if fi != wi || math.Float64bits(fd) != math.Float64bits(wd) ||
				idx[i] != wi || math.Float64bits(d2[i]) != math.Float64bits(wd) {
				fatal(fmt.Errorf("tail %s: query %d: Nearest (%d, %x), NearestBatch (%d, %x), brute (%d, %x)",
					spec.Name, i, fi, math.Float64bits(fd), idx[i], math.Float64bits(d2[i]), wi, math.Float64bits(wd)))
			}
		}

		bruteNs, finderNs, batchNs := math.Inf(1), math.Inf(1), math.Inf(1)
		for r := 0; r < reps; r++ {
			s := measure(spec.N, func() {
				for _, q := range queries {
					kmeans.NearestBrute(centroids, q)
				}
			})
			bruteNs = math.Min(bruteNs, s)
			s = measure(spec.N, func() {
				for _, q := range queries {
					finder.Nearest(q)
				}
			})
			finderNs = math.Min(finderNs, s)
			s = measure(spec.N, func() {
				finder.NearestBatch(queries, idx, d2, workers)
			})
			batchNs = math.Min(batchNs, s)
		}
		w.BruteNsPerQuery = bruteNs
		w.FinderNsPerQuery = finderNs
		w.BatchNsPerQuery = batchNs
		w.NsPerPoint = finderNs
		out[spec.Name] = w
	}
	return out
}

// tailCentroids spreads K deterministic centroids over the blob lattice,
// matching the centers blobs() samples around.
func tailCentroids(dim, k int) []vec.Vector {
	out := make([]vec.Vector, k)
	for i := range out {
		c := vec.New(dim)
		for d := 0; d < dim; d++ {
			c[d] = float64((i*(d+7))%k) * 25
		}
		out[i] = c
	}
	return out
}

// verifyTail checks every refine and classify workload is present with
// sane measurements.
func verifyTail(rep *Report, quick bool) error {
	for _, spec := range tailRefineSpecs(quick) {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("missing workload %q", spec.Name)
		}
		if w.RefNsPerPoint <= 0 || w.NsPerPoint <= 0 || w.ParNsPerPoint <= 0 || w.SpeedupVsRef <= 0 {
			return fmt.Errorf("workload %q has degenerate measurements", spec.Name)
		}
	}
	for _, spec := range tailClassifySpecs(quick) {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("missing workload %q", spec.Name)
		}
		if w.BruteNsPerQuery <= 0 || w.FinderNsPerQuery <= 0 || w.BatchNsPerQuery <= 0 {
			return fmt.Errorf("workload %q has degenerate measurements", spec.Name)
		}
	}
	return nil
}
