package main

// Parallel-tail workloads (BENCH_tail.json): the Phase 4 refinement inner
// loop and the flat-scan serving path.
//
// Refine workloads time repeated nearest-centroid assignment passes over
// a fixed point set — exactly the shape of Phase 4 with RefinePasses > 1
// — three ways: the retained pre-parallel reference implementation
// (kmeans.AssignPointsReference: sequential, fresh buffers per pass,
// brute/k-d crossover at 24 centroids), the production Assigner at one
// worker, and the production Assigner at eight. All three produce the
// same labels; the deltas are pure implementation: fused flat scan,
// zero-alloc buffer reuse, and (on multi-core hosts) the chunked fan-out.
// Meta records GOMAXPROCS and NumCPU — on a single-CPU host the W8
// column measures scheduling overhead, not speedup, and the honest gain
// is the ref→par ratio.
//
// Classify workloads time one query stream against a fixed centroid set
// under each Finder mode — brute loop, fused flat scan, exact k-d tree —
// plus the batch path (index built once, fanned across workers). The
// fused-vs-kd columns across K are the measurement behind
// kmeans.FusedKDThreshold.

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
			refNs = math.Min(refNs, s.ns)

			s = measure(total, func() {
				for p := 0; p < tailRefinePasses; p++ {
					refAssigner.Assign(pts, centroids, 0, 1)
				}
			})
			par1Ns = math.Min(par1Ns, s.ns)

			s = measure(total, func() {
				for p := 0; p < tailRefinePasses; p++ {
					parAssigner.Assign(pts, centroids, 0, workers)
				}
			})
			par8Ns = math.Min(par8Ns, s.ns)
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
		brute := kmeans.NewFinderMode(centroids, kmeans.FinderBrute)
		fused := kmeans.NewFinderMode(centroids, kmeans.FinderFused)
		kd := kmeans.NewFinderMode(centroids, kmeans.FinderKD)
		auto := kmeans.NewFinder(centroids)
		idx := make([]int, spec.N)
		d2 := make([]float64, spec.N)

		bruteNs, fusedNs, kdNs, batchNs := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		for r := 0; r < reps; r++ {
			for _, m := range []struct {
				f  *kmeans.Finder
				ns *float64
			}{{brute, &bruteNs}, {fused, &fusedNs}, {kd, &kdNs}} {
				f := m.f
				s := measure(spec.N, func() {
					for _, q := range queries {
						f.Nearest(q)
					}
				})
				*m.ns = math.Min(*m.ns, s.ns)
			}
			s := measure(spec.N, func() {
				auto.NearestBatch(queries, idx, d2, workers)
			})
			batchNs = math.Min(batchNs, s.ns)
		}
		w.BruteNsPerQuery = bruteNs
		w.FusedNsPerQuery = fusedNs
		w.KDNsPerQuery = kdNs
		w.BatchNsPerQuery = batchNs
		w.NsPerPoint = fusedNs
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
		if w.BruteNsPerQuery <= 0 || w.FusedNsPerQuery <= 0 || w.KDNsPerQuery <= 0 || w.BatchNsPerQuery <= 0 {
			return fmt.Errorf("workload %q has degenerate measurements", spec.Name)
		}
	}
	return nil
}
