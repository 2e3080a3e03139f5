// Package core implements the BIRCH clustering pipeline of Section 4.4
// (Figure 1): Phase 1 builds an in-memory CF tree incrementally under a
// memory budget, rebuilding with a larger threshold when memory fills and
// optionally spilling potential outliers to disk; Phase 2 (optional)
// condenses the tree to a size the global algorithm likes; Phase 3 runs a
// global clustering algorithm (adapted agglomerative HC or weighted
// k-means) over the leaf entries; Phase 4 (optional) refines by
// re-scanning the data and assigning every point to the closest Phase 3
// centroid, optionally discarding outliers and producing point labels.
//
// The package carries the deterministic lint contract (DESIGN.md §12):
// a pipeline run over a fixed input stream produces bit-identical
// results for a fixed configuration, including under parallel phases.
//
//birchlint:deterministic
package core

import (
	"fmt"
	"runtime"

	"birch/internal/cf"
)

// GlobalAlg selects the Phase 3 algorithm.
type GlobalAlg int

const (
	// GlobalHC is the paper's adapted agglomerative hierarchical
	// clustering (default).
	GlobalHC GlobalAlg = iota
	// GlobalKMeans is adapted weighted k-means.
	GlobalKMeans
	// GlobalCLARANS is adapted weighted CLARANS over the subcluster
	// summaries — the paper's example of plugging a semi-global
	// algorithm into Phase 3.
	GlobalCLARANS
)

// String names the algorithm.
func (g GlobalAlg) String() string {
	switch g {
	case GlobalHC:
		return "hc"
	case GlobalKMeans:
		return "kmeans"
	case GlobalCLARANS:
		return "clarans"
	default:
		return fmt.Sprintf("GlobalAlg(%d)", int(g))
	}
}

// Config holds every knob of the pipeline. DefaultConfig returns the
// paper's Table 2 settings.
type Config struct {
	// Dim is the data dimensionality.
	Dim int

	// Memory is M: the CF-tree memory budget in bytes (default 80 KB).
	Memory int
	// PageSize is P in bytes (default 1024); node fan-outs B and L are
	// derived from it.
	PageSize int
	// OutlierDiskPct sizes the outlier disk R as a percentage of Memory
	// (default 20). Ignored when OutlierHandling is false.
	OutlierDiskPct float64

	// InitialThreshold is T0 (default 0; Section 6.5 shows BIRCH is
	// robust to it as long as it is not excessively large).
	InitialThreshold float64
	// ThresholdKind selects diameter (default) or radius.
	ThresholdKind cf.ThresholdKind
	// Metric is the Phase 1 closest-entry distance (Table 2 default D2).
	Metric cf.Metric
	// MergingRefinement toggles the Section 4.3 split amelioration
	// (default on).
	MergingRefinement bool
	// Core selects the CF statistic backend for the whole pipeline: the
	// paper's (N, LS, SS) triple (default) or the numerically stable
	// BETULA mean/deviation form, which survives large-offset data where
	// the triple cancels catastrophically.
	Core cf.CoreKind
	// OutlierHandling toggles the Section 5.1.4 outlier disk (default on).
	OutlierHandling bool
	// OutlierFraction defines a potential outlier as a leaf entry with
	// fewer than OutlierFraction × (average points per leaf entry) points
	// (default 0.25, "far fewer data points than the average").
	OutlierFraction float64
	// DelaySplit toggles the delay-split option: when memory is full,
	// points that would split a node are spilled to the outlier disk to
	// postpone the rebuild (default on, per Section 6.4's base settings).
	DelaySplit bool

	// Phase2 condenses the tree so Phase 3 sees about Phase3InputSize
	// leaf entries (default on with 1000, the paper's observation that
	// its adapted HC has a sweet-spot input size).
	Phase2          bool
	Phase3InputSize int

	// K is the target number of clusters for Phase 3. Exactly one of K
	// and MaxDiameter must be set.
	K int
	// MaxDiameter lets Phase 3 stop by cluster-diameter bound instead of
	// a count.
	MaxDiameter float64
	// GlobalAlgorithm picks HC (default) or k-means for Phase 3.
	GlobalAlgorithm GlobalAlg
	// GlobalMetric is the distance for Phase 3's HC (default D2).
	GlobalMetric cf.Metric

	// Refine toggles Phase 4 (default on, matching Section 6.4's base
	// configuration, which reports results "at the end of Phase 4").
	Refine bool
	// RefinePasses is how many assignment passes Phase 4 makes
	// (default 1; "Phase 4 can be extended with additional passes ...
	// converges to a minimum").
	RefinePasses int
	// RefineDiscardOutliers drops points too far from every centroid
	// during the final pass (default off).
	RefineDiscardOutliers bool
	// RefineDiscardFactor: a point is discarded when its distance to the
	// closest centroid exceeds RefineDiscardFactor × the weighted average
	// radius of the Phase 3 clusters (default 2).
	RefineDiscardFactor float64

	// Seed drives the deterministic randomness of GlobalKMeans.
	Seed int64

	// TailWorkers bounds the goroutines used by the pipeline tail —
	// Phase 2's closest-pair scan, Phase 3's Lloyd iterations and
	// Phase 4's refinement passes. Zero means GOMAXPROCS; 1 runs the
	// tail sequentially. Every tail loop reduces over a fixed chunk grid
	// in chunk-index order, so results (labels, cluster CFs, centroids)
	// are bit-identical for every worker count.
	TailWorkers int
}

// tailWorkers resolves TailWorkers, mapping the zero default to
// GOMAXPROCS.
func (c *Config) tailWorkers() int {
	if c.TailWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.TailWorkers
}

// DefaultConfig returns the paper's default parameter settings (Table 2)
// for dimension dim and k target clusters.
func DefaultConfig(dim, k int) Config {
	return Config{
		Dim:                 dim,
		Memory:              80 * 1024,
		PageSize:            1024,
		OutlierDiskPct:      20,
		InitialThreshold:    0,
		ThresholdKind:       cf.ThresholdDiameter,
		Metric:              cf.D2,
		MergingRefinement:   true,
		OutlierHandling:     true,
		OutlierFraction:     0.25,
		DelaySplit:          true,
		Phase2:              true,
		Phase3InputSize:     1000,
		K:                   k,
		GlobalAlgorithm:     GlobalHC,
		GlobalMetric:        cf.D2,
		Refine:              true,
		RefinePasses:        1,
		RefineDiscardFactor: 2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("core: Dim must be positive, got %d", c.Dim)
	}
	if c.PageSize <= 0 {
		return fmt.Errorf("core: PageSize must be positive, got %d", c.PageSize)
	}
	if c.Memory < c.PageSize {
		return fmt.Errorf("core: Memory %d below one page %d", c.Memory, c.PageSize)
	}
	if c.OutlierDiskPct < 0 {
		return fmt.Errorf("core: negative OutlierDiskPct %g", c.OutlierDiskPct)
	}
	if c.InitialThreshold < 0 {
		return fmt.Errorf("core: negative InitialThreshold %g", c.InitialThreshold)
	}
	if !c.Metric.Valid() {
		return fmt.Errorf("core: invalid Metric %v", c.Metric)
	}
	if !c.GlobalMetric.Valid() {
		return fmt.Errorf("core: invalid GlobalMetric %v", c.GlobalMetric)
	}
	if !c.Core.Valid() {
		return fmt.Errorf("core: invalid Core %v", c.Core)
	}
	if c.OutlierHandling && (c.OutlierFraction <= 0 || c.OutlierFraction >= 1) {
		return fmt.Errorf("core: OutlierFraction %g outside (0, 1)", c.OutlierFraction)
	}
	if c.Phase2 && c.Phase3InputSize < 2 {
		return fmt.Errorf("core: Phase3InputSize %d too small", c.Phase3InputSize)
	}
	if c.K < 0 {
		return fmt.Errorf("core: negative K %d", c.K)
	}
	if c.K == 0 && c.MaxDiameter <= 0 {
		return fmt.Errorf("core: need K or MaxDiameter as a Phase 3 stopping rule")
	}
	if (c.GlobalAlgorithm == GlobalKMeans || c.GlobalAlgorithm == GlobalCLARANS) && c.K == 0 {
		return fmt.Errorf("core: %v requires K", c.GlobalAlgorithm)
	}
	if c.TailWorkers < 0 {
		return fmt.Errorf("core: negative TailWorkers %d", c.TailWorkers)
	}
	if c.Refine && c.RefinePasses < 1 {
		return fmt.Errorf("core: RefinePasses %d < 1", c.RefinePasses)
	}
	if c.RefineDiscardOutliers && c.RefineDiscardFactor <= 0 {
		return fmt.Errorf("core: RefineDiscardFactor must be positive when discarding")
	}
	switch c.GlobalAlgorithm {
	case GlobalHC, GlobalKMeans, GlobalCLARANS:
	default:
		return fmt.Errorf("core: unknown GlobalAlgorithm %v", c.GlobalAlgorithm)
	}
	return nil
}
