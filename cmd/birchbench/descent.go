package main

import (
	"fmt"
	"math"

	"birch/internal/cf"
	"birch/internal/cftree"
	"birch/internal/pager"
)

// scanFile records the descent-scan workloads: the cost of the CF-tree's
// closest-entry scans with the fused block kernel (the default) against
// the per-entry kernel loop (the bit-identical reference), measured on an
// absorb-dominated steady state where descent is the whole hot path.
const scanFile = "BENCH_scan.json"

// descentSpec is one descent workload: the distance metric,
// dimensionality, point count, and the tree shape. A 4 KB page gives
// wide nodes (large fan-out), so each closest-entry decision scans many
// candidates — exactly the loop the scan block exists to accelerate.
type descentSpec struct {
	Name      string
	Metric    cf.Metric
	Dim       int
	N         int
	PageSize  int
	Threshold float64
	Seed      int64
}

func descentSpecs(quick bool) []descentSpec {
	div := 1
	if quick {
		div = 10
	}
	// Thresholds sit well below the blob diameter so each blob shatters
	// into many subclusters: the converged trees are several levels deep
	// with wide nodes, and every insert descends through full node scans
	// (the regime the fused kernel targets) instead of absorbing at a
	// one-leaf root.
	//
	// The suite spans both slab families: D0 and D4 stream the x0 slab
	// (per-component centroid divisions hoisted — the largest fused
	// wins), D2 streams the ls slab. D1 and D3 are covered by the
	// microbenchmarks in internal/cf instead: D1 descends identically to
	// D0, and D3's preference for merging with small clusters makes its
	// re-insert pass append rather than absorb, so it cannot satisfy
	// this workload's steady-state protocol. The absorb threshold is a
	// diameter bound in every spec, so tree shapes stay comparable and
	// only the descent scans change with the metric.
	return []descentSpec{
		{"descent_d2_dim2_n50k", cf.D2, 2, 50000 / div, 4 << 10, 0.25, 301},
		{"descent_d0_dim8_n20k", cf.D0, 8, 20000 / div, 4 << 10, 3, 302},
		{"descent_d4_dim32_n10k", cf.D4, 32, 10000 / div, 4 << 10, 8, 303},
	}
}

// runDescentWorkloads measures each spec under both scan modes. The
// protocol per mode: build the tree once from the point stream (warm-up;
// splits and structure happen here), then re-insert the same stream into
// the converged tree — at a threshold above the blob diameter every
// re-insertion absorbs, so the measured pass is pure descent + absorb,
// the steady state of Phase 1 on a converged tree. Best-of-reps per mode.
//
// The fused-mode numbers land in the standard ns/allocs/bytes fields;
// the reference loop's ns lands in EntryScanNsPerPoint with the ratio in
// FusedVsEntryScan (< 1 means the fused scan is faster). Both modes must
// agree on the resulting tree — the harness fatals on any divergence,
// so the speedup can never come from doing different work.
func runDescentWorkloads(quick bool, reps, _ int) map[string]Workload {
	out := make(map[string]Workload)
	for _, spec := range descentSpecs(quick) {
		pts := blobs(spec.Seed, spec.Dim, 16, spec.N)
		ents := make([]cf.CF, len(pts))
		for i, p := range pts {
			ents[i] = cf.FromPoint(p)
		}

		w := Workload{Dim: spec.Dim, Points: len(pts), Seed: spec.Seed, Metric: spec.Metric.String()}
		inf := sample{ns: math.Inf(1), allocs: math.Inf(1), bytes: math.Inf(1)}
		perMode := [2]sample{inf, inf}
		var leafEntries [2]int
		// Modes are interleaved within each rep (fused, entries, fused,
		// entries, ...) rather than measured back to back, so slow drift
		// in the host's effective speed hits both sides of the ratio
		// equally instead of biasing whichever mode ran later.
		for r := 0; r < reps; r++ {
			for mi, mode := range []cftree.ScanMode{cftree.ScanFused, cftree.ScanEntries} {
				tr := newTree(spec.Dim, spec.PageSize, spec.Threshold, spec.Metric, mode)
				for i := range ents {
					tr.Insert(ents[i].Clone()) // warm-up: build the tree
				}
				s := measure(len(ents), func() {
					for i := range ents {
						tr.Insert(ents[i]) // measured: absorb steady state
					}
				})
				perMode[mi] = perMode[mi].min(s)
				leafEntries[mi] = tr.LeafEntries()
			}
		}
		if leafEntries[0] != leafEntries[1] {
			fatal(fmt.Errorf("descent %s: scan modes diverged: %d vs %d leaf entries",
				spec.Name, leafEntries[0], leafEntries[1]))
		}

		w.NsPerPoint = perMode[0].ns
		w.AllocsPerPoint = perMode[0].allocs
		w.BytesPerPoint = perMode[0].bytes
		w.LeafEntries = leafEntries[0]
		w.EntryScanNsPerPoint = perMode[1].ns
		if perMode[1].ns > 0 {
			w.FusedVsEntryScan = perMode[0].ns / perMode[1].ns
		}
		out[spec.Name] = w
	}
	return out
}

// newTree builds an empty tree with page-derived fan-outs, a diameter
// threshold and an effectively unlimited memory budget (no rebuilds; the
// descent and sparse workloads isolate descent, not threshold
// escalation).
func newTree(dim, pageSize int, threshold float64, metric cf.Metric, mode cftree.ScanMode) *cftree.Tree {
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
		Metric:            metric,
		MergingRefinement: true,
		Scan:              mode,
	}, pgr)
	if err != nil {
		fatal(err)
	}
	return tr
}
