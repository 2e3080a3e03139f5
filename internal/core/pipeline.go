package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"birch/internal/cf"
	"birch/internal/clarans"
	"birch/internal/hc"
	"birch/internal/kmeans"
	"birch/internal/quality"
	"birch/internal/vec"
)

// Run executes the full pipeline (Phases 1–4 per cfg) over the in-memory
// point set and returns the clustering.
func Run(points []vec.Vector, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, errors.New("core: no points")
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	eng.SetExpectedN(int64(len(points)))

	total := time.Now()

	// Phase 1: scan the data once, building the CF tree.
	if err := eng.addPoints(points); err != nil {
		return nil, err
	}

	res, err := Finish(eng, points)
	if err != nil {
		return nil, err
	}
	res.Stats.Total = time.Since(total)
	return res, nil
}

// Finish runs the tail of the pipeline — end-of-Phase-1 outlier
// resolution, Phase 2 condensing, Phase 3 global clustering, and Phase 4
// refinement — on an engine whose Phase 1 has consumed its input. The
// streaming front end (the public birch.Clusterer) calls this directly.
//
// points are the raw data for Phase 4; they may be nil only when the
// configuration has refinement off, since Phase 4 is defined as a re-scan.
func Finish(eng *Engine, points []vec.Vector) (*Result, error) {
	cfg := eng.cfg
	if cfg.Refine && len(points) == 0 {
		return nil, errors.New("core: refinement requires the raw points")
	}

	res := &Result{}
	res.Stats.Phase1 = eng.FinishPhase1()

	// Phase 2 (optional): condense the tree for Phase 3.
	res.Stats.Phase2 = eng.Condense()

	// Phase 3: global clustering over the leaf entries.
	clusters, err := eng.GlobalCluster(&res.Stats.Phase3)
	if err != nil {
		return nil, err
	}

	// Phase 4 (optional): refine against the raw data. With refinement
	// on, every input point is re-examined, so a point Phase 1 discarded
	// can re-enter a cluster; the final outlier count is whatever Phase 4
	// leaves unassigned. Without refinement, the Phase 1 discards stand.
	if cfg.Refine {
		if err := refine(eng, points, clusters, res); err != nil {
			return nil, err
		}
		res.Outliers = res.Stats.Phase4.Discarded
	} else {
		res.Clusters = clusters
		res.Centroids = centroidsOf(clusters)
		res.Outliers = res.Stats.Phase1.OutliersFinal
	}

	res.Stats.IO = eng.Pager().Stats()
	return res, nil
}

// Condense is Phase 2: rebuild the tree with increasing thresholds until
// the number of leaf entries drops to the configured Phase 3 input size.
// It is a no-op when Phase2 is off or the tree is already small enough.
func (e *Engine) Condense() Phase2Stats {
	st := Phase2Stats{LeafEntries: e.tree.LeafEntries(), EndThreshold: e.tree.Threshold()}
	if !e.cfg.Phase2 {
		return st
	}
	st.Ran = true
	start := time.Now()
	target := e.cfg.Phase3InputSize

	const maxCondenseRounds = 32
	for round := 0; round < maxCondenseRounds && e.tree.LeafEntries() > target; round++ {
		curT := e.tree.Threshold()
		// Volume heuristic: shrinking m entries to the target at constant
		// packed volume needs T to grow by (m/target)^(1/d).
		ratio := float64(e.tree.LeafEntries()) / float64(target)
		newT := curT * math.Pow(ratio, 1/float64(e.cfg.Dim))
		if dmin, ok := e.tree.ClosestLeafPairDistance(e.cfg.tailWorkers()); ok && dmin > newT {
			newT = dmin
		}
		if newT <= curT {
			if curT <= 0 {
				newT = 1e-3
			} else {
				newT = curT * forcedExpansion
			}
		}
		nt, _, err := e.tree.Rebuild(newT, nil)
		if err != nil {
			// Unreachable with newT ≥ 0; keep the old tree on bugs, but
			// surface the condition instead of swallowing it.
			st.Err = fmt.Errorf("core: phase 2 rebuild at T=%g: %w", newT, err)
			break
		}
		e.tree = nt
		st.Rebuilds++
	}
	st.Duration = time.Since(start)
	st.LeafEntries = e.tree.LeafEntries()
	st.EndThreshold = e.tree.Threshold()
	return st
}

// GlobalCluster is Phase 3: apply the configured global algorithm to the
// leaf entries and return the cluster summaries.
func (e *Engine) GlobalCluster(stats *Phase3Stats) ([]cf.CF, error) {
	start := time.Now()
	leaves := e.tree.LeafCFs()
	stats.Inputs = len(leaves)
	if len(leaves) == 0 {
		return nil, errors.New("core: Phase 3 has no leaf entries (empty input?)")
	}

	var clusters []cf.CF
	switch e.cfg.GlobalAlgorithm {
	case GlobalHC:
		opts := hc.Options{
			K:           e.cfg.K,
			MaxDiameter: e.cfg.MaxDiameter,
			Metric:      e.cfg.GlobalMetric,
		}
		engine := hc.Cluster
		if e.cfg.HCNNChain {
			engine = hc.ClusterNNChain
		}
		res, err := engine(leaves, opts)
		if err != nil {
			return nil, fmt.Errorf("core: phase 3 HC: %w", err)
		}
		clusters = res.Clusters
	case GlobalKMeans:
		res, err := kmeans.Cluster(leaves, kmeans.Options{
			K:       e.cfg.K,
			Seed:    e.cfg.Seed,
			Workers: e.cfg.tailWorkers(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: phase 3 k-means: %w", err)
		}
		clusters = res.Clusters
	case GlobalCLARANS:
		k := e.cfg.K
		if k > len(leaves) {
			k = len(leaves)
		}
		res, err := clarans.ClusterWeighted(leaves, clarans.Options{
			K:    k,
			Seed: e.cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("core: phase 3 clarans: %w", err)
		}
		clusters = res.Clusters
	default:
		return nil, fmt.Errorf("core: unknown global algorithm %v", e.cfg.GlobalAlgorithm)
	}
	stats.Clusters = len(clusters)
	stats.Duration = time.Since(start)
	return clusters, nil
}

// refine is Phase 4: one or more passes over the raw data, assigning each
// point to the closest centroid (the Phase 3 centroids act as seeds),
// recomputing centroids between passes, and optionally discarding points
// too far from every seed on the final pass.
func refine(e *Engine, points []vec.Vector, seeds []cf.CF, res *Result) error {
	start := time.Now()
	st := &res.Stats.Phase4
	st.Ran = true

	centroids := centroidsOf(seeds)
	if len(centroids) == 0 {
		return errors.New("core: phase 4 has no seed centroids")
	}

	// The discard radius follows the paper's "more than twice the radius
	// of the cluster" guidance, globalized to the weighted average radius
	// of the Phase 3 clusters.
	discard := 0.0
	if e.cfg.RefineDiscardOutliers {
		discard = e.cfg.RefineDiscardFactor * quality.WeightedAvgRadius(seeds)
		if discard <= 0 {
			discard = e.cfg.RefineDiscardFactor * e.tree.Threshold()
		}
	}

	// One Assigner serves every pass: its labels, per-cluster sums,
	// per-chunk partials and packed centroid block are sized on the first
	// pass and reused afterwards, so the steady-state pass allocates
	// nothing (gated by kmeans.TestAssignSteadyStateAllocs). Centroids
	// are refreshed in place between passes for the same reason.
	asg := kmeans.Assigner{Core: e.cfg.Core}
	workers := e.cfg.tailWorkers()
	var labels []int
	var sums []cf.CF
	for pass := 0; pass < e.cfg.RefinePasses; pass++ {
		e.pgr.NoteScan()
		st.Passes++
		lastPass := pass == e.cfg.RefinePasses-1
		d := 0.0
		if lastPass {
			d = discard
		}
		labels, sums = asg.Assign(points, centroids, d, workers)
		refreshCentroidsInPlace(centroids, sums)
	}

	// Drop empty clusters and remap labels compactly.
	remap := make([]int, len(sums))
	var finalClusters []cf.CF
	for i := range sums {
		if sums[i].N == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = len(finalClusters)
		finalClusters = append(finalClusters, sums[i])
	}
	for i, l := range labels {
		if l >= 0 {
			labels[i] = remap[l]
		}
	}
	for _, l := range labels {
		if l == -1 {
			st.Discarded++
		}
	}

	res.Labels = labels
	res.Clusters = finalClusters
	res.Centroids = centroidsOf(finalClusters)
	st.Duration = time.Since(start)
	return nil
}

// refreshCentroidsInPlace replaces each centroid with its cluster's new
// mean, writing into the existing vectors, and keeps the old position
// for clusters that received no points (so a temporarily starved seed is
// not destroyed between passes). CentroidInto stores bit-for-bit the
// values Centroid would allocate, so the in-place refresh changes no
// result — only the per-pass allocation count.
func refreshCentroidsInPlace(centroids []vec.Vector, sums []cf.CF) {
	for i := range sums {
		if sums[i].N == 0 {
			continue
		}
		sums[i].CentroidInto(centroids[i])
	}
}

// centroidsOf extracts the centroid of each non-empty cluster.
func centroidsOf(clusters []cf.CF) []vec.Vector {
	out := make([]vec.Vector, 0, len(clusters))
	for i := range clusters {
		if clusters[i].N == 0 {
			continue
		}
		out = append(out, clusters[i].Centroid())
	}
	return out
}
