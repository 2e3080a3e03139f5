// Package birch implements BIRCH (Balanced Iterative Reducing and
// Clustering using Hierarchies), the clustering method for very large
// databases of Zhang, Ramakrishnan & Livny (SIGMOD 1996).
//
// BIRCH clusters multi-dimensional metric data incrementally under an
// explicit memory budget. A single scan of the data builds a compact
// in-memory CF tree of subcluster summaries (Phase 1); an optional
// condensing step shrinks it (Phase 2); a global clustering algorithm
// runs over the summaries (Phase 3); and an optional refinement pass
// re-scans the data to polish cluster membership and label every point
// (Phase 4).
//
// # Quick start
//
//	points := []birch.Point{{1.0, 2.0}, {1.1, 2.1}, {9.0, 9.0}}
//	cfg := birch.DefaultConfig(2 /* dimensions */, 2 /* clusters */)
//	res, err := birch.Cluster(points, cfg)
//	// res.Centroids, res.Labels, res.Clusters ...
//
// # Streaming
//
//	c, _ := birch.New(cfg)
//	for p := range source {
//	    c.Insert(p)
//	}
//	res, _ := c.Finish()
//
// # Concurrent streaming
//
// NewStreamClusterer returns an always-on, thread-safe engine: any number
// of goroutines insert concurrently (points fan out to sharded CF trees,
// merged losslessly by CF additivity), while readers classify against an
// atomically-published snapshot without taking a lock.
//
//	s, _ := birch.NewStreamClusterer(cfg, birch.StreamOptions{
//	    Shards:          4,
//	    CompactInterval: time.Second, // republish clusters every second
//	})
//	go func() { // any number of writers
//	    for p := range source {
//	        s.Insert(ctx, p)
//	    }
//	}()
//	cluster, dist, ok := s.Classify(query) // lock-free, any goroutine
//	defer s.Close()
//
// The defaults reproduce the paper's Table 2 settings (80 KB of tree
// memory, 1024-byte pages, D2 metric, diameter threshold starting at 0,
// outlier handling and delay-split on, agglomerative hierarchical
// clustering globally, one refinement pass).
package birch

import (
	"errors"
	"fmt"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/stream"
	"birch/internal/vec"
)

// Point is a d-dimensional data point.
type Point = vec.Vector

// SparsePoint is a d-dimensional data point in sparse (CSR-style
// index/value) form: only the nonzero coordinates are stored. Inserting
// a SparsePoint is contractually bit-identical to inserting its
// densification — the sparse representation is purely a performance
// path for high-dimensional, mostly-zero data (documents, one-hot
// features). Build one with NewSparsePoint, which validates the
// invariants (strictly increasing in-range indices, finite values).
type SparsePoint = vec.Sparse

// NewSparsePoint builds a validated d-dimensional sparse point from
// parallel index/value slices (indices strictly increasing, in [0, d);
// values finite). The slices are referenced, not copied.
func NewSparsePoint(d int, idx []int32, val []float64) (SparsePoint, error) {
	return vec.NewSparse(d, idx, val)
}

// CF is a Clustering Feature: the (N, LS, SS) summary of a subcluster.
// Its methods expose the centroid, radius and diameter of the summarized
// cluster.
type CF = cf.CF

// Metric selects one of the paper's five inter-cluster distances.
type Metric = cf.Metric

// The five distance definitions of the paper (Section 3).
const (
	// D0 is the Euclidean distance between centroids.
	D0 = cf.D0
	// D1 is the Manhattan distance between centroids.
	D1 = cf.D1
	// D2 is the average inter-cluster distance (the Phase 1 default).
	D2 = cf.D2
	// D3 is the average intra-cluster distance of the merged cluster.
	D3 = cf.D3
	// D4 is the variance-increase (Ward) distance.
	D4 = cf.D4
	// DCos is the cosine distance between centroids — the natural metric
	// for direction-dominated high-dimensional data (e.g. tf-idf
	// document vectors), added beyond the paper's five. See the Metric
	// documentation in internal/cf for the exact definition.
	DCos = cf.DCos
)

// ThresholdKind selects which property the leaf threshold T bounds.
type ThresholdKind = cf.ThresholdKind

// Threshold kinds.
const (
	// ThresholdDiameter bounds each leaf subcluster's diameter (default).
	ThresholdDiameter = cf.ThresholdDiameter
	// ThresholdRadius bounds the radius instead.
	ThresholdRadius = cf.ThresholdRadius
)

// CoreKind selects the CF statistic backend (Config.Core).
type CoreKind = cf.CoreKind

// CF-core backends.
const (
	// CoreClassic is the paper's (N, LS, SS) clustering-feature triple
	// (default). Radius/diameter forms subtract large near-equal
	// aggregates, so precision degrades quadratically with the data's
	// distance from the origin.
	CoreClassic = cf.CoreClassic
	// CoreBETULA stores (N, μ, S) — mean and sum of squared deviations,
	// maintained Welford-style — which keeps cluster statistics accurate
	// at any offset. Same memory, slightly more work per insert.
	CoreBETULA = cf.CoreBETULA
)

// GlobalAlg selects the Phase 3 global clustering algorithm.
type GlobalAlg = core.GlobalAlg

// Phase 3 algorithms.
const (
	// GlobalHC is the paper's adapted agglomerative hierarchical
	// clustering (default).
	GlobalHC = core.GlobalHC
	// GlobalKMeans is adapted weighted k-means.
	GlobalKMeans = core.GlobalKMeans
	// GlobalCLARANS is adapted weighted CLARANS over subcluster summaries.
	GlobalCLARANS = core.GlobalCLARANS
)

// Config holds every pipeline knob; see DefaultConfig for the paper's
// defaults and the field documentation in this type for meanings.
type Config = core.Config

// Result is the outcome of a clustering run: final centroids, per-cluster
// CF summaries, optional per-point labels (-1 = outlier), the outlier
// count, and per-phase statistics.
type Result = core.Result

// DefaultConfig returns the paper's Table 2 default settings for
// dim-dimensional data and k target clusters.
func DefaultConfig(dim, k int) Config { return core.DefaultConfig(dim, k) }

// Cluster runs the full BIRCH pipeline over points.
func Cluster(points []Point, cfg Config) (*Result, error) {
	return core.Run(points, cfg)
}

// ClusterSparse runs the full BIRCH pipeline over sparse points,
// streaming them through the Phase 1 sparse fast path. The clustering
// is bit-identical to Cluster over the densified points; with
// cfg.Refine on, the Phase 4 re-scan runs over the densifications.
func ClusterSparse(points []SparsePoint, cfg Config) (*Result, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for i, sp := range points {
		if err := c.InsertSparse(sp); err != nil {
			return nil, fmt.Errorf("birch: sparse point %d: %w", i, err)
		}
	}
	return c.Finish()
}

// ClusterParallel runs Phase 1 data-parallel across the given number of
// workers (0 = GOMAXPROCS) and merges the per-shard subcluster summaries
// via CF additivity before Phases 2–4 — the parallel execution the
// paper's Section 7 anticipates. Results agree with Cluster to within
// the same tolerance as reordering the input.
func ClusterParallel(points []Point, cfg Config, workers int) (*Result, error) {
	return core.RunParallel(points, cfg, workers)
}

// Clusterer is the incremental (streaming) interface: points are inserted
// one at a time into the Phase 1 CF tree, and Finish runs the remaining
// phases.
//
// When cfg.Refine is true the Clusterer must buffer the inserted points,
// because Phase 4 re-scans the data; for unbounded streams either set
// Refine to false (BIRCH's Phase 1–3 never revisit a point) or window the
// stream.
type Clusterer struct {
	cfg    Config
	eng    *core.Engine
	points []Point
	done   bool
}

// New creates a streaming Clusterer.
func New(cfg Config) (*Clusterer, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Clusterer{cfg: cfg, eng: eng}, nil
}

// Insert adds one point to the stream.
func (c *Clusterer) Insert(p Point) error {
	if c.done {
		return errors.New("birch: Insert after Finish")
	}
	if err := c.eng.Add(p); err != nil {
		return err
	}
	if c.cfg.Refine {
		c.points = append(c.points, p.Clone())
	}
	return nil
}

// InsertSparse adds one sparse point to the stream. The result is
// bit-identical to Insert(sp.Dense()); below the measured density
// crossover (cf.SparseGatherMaxDensity) the descent additionally rides
// the sparse gather kernels where the metric admits them. The point is
// validated here, at the public boundary. With cfg.Refine on, the
// densification is buffered for the Phase 4 re-scan.
func (c *Clusterer) InsertSparse(sp SparsePoint) error {
	if c.done {
		return errors.New("birch: InsertSparse after Finish")
	}
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("birch: InsertSparse: %w", err)
	}
	if err := c.eng.AddSparse(sp); err != nil {
		return err
	}
	if c.cfg.Refine {
		c.points = append(c.points, sp.Dense())
	}
	return nil
}

// InsertCF adds a pre-summarized subcluster (for example, the output of
// another BIRCH run) to the stream. Refinement cannot recover the
// member points of a summary, so InsertCF requires cfg.Refine == false.
func (c *Clusterer) InsertCF(sub CF) error {
	if c.done {
		return errors.New("birch: InsertCF after Finish")
	}
	if c.cfg.Refine {
		return errors.New("birch: InsertCF requires Refine=false (summaries have no points to re-scan)")
	}
	return c.eng.AddCF(sub)
}

// InsertWeighted adds w identical copies of p in one operation — the
// natural encoding for pre-aggregated data (e.g. histogram bins or
// "count" columns). Like InsertCF it requires Refine=false, since the
// individual copies cannot be re-scanned.
func (c *Clusterer) InsertWeighted(p Point, w int64) error {
	var sub CF
	sub.AddWeightedPoint(p, w)
	return c.InsertCF(sub)
}

// Subclusters returns the current Phase 1 leaf entries — the CF summaries
// BIRCH maintains incrementally. Useful for inspecting the stream state
// before Finish.
func (c *Clusterer) Subclusters() []CF {
	return c.eng.Tree().LeafCFs()
}

// StreamStats describes the live Phase 1 state of a Clusterer.
type StreamStats struct {
	// Points is the number of data points summarized so far.
	Points int64
	// Subclusters is the number of leaf entries in the CF tree.
	Subclusters int
	// Threshold is the current absorption threshold T.
	Threshold float64
	// TreeNodes and TreeHeight describe the tree's current shape.
	TreeNodes  int
	TreeHeight int
}

// Stats reports the Clusterer's live Phase 1 state.
func (c *Clusterer) Stats() StreamStats {
	t := c.eng.Tree()
	return StreamStats{
		Points:      t.Points(),
		Subclusters: t.LeafEntries(),
		Threshold:   t.Threshold(),
		TreeNodes:   t.Nodes(),
		TreeHeight:  t.Height(),
	}
}

// Finish completes Phases 1–4 and returns the clustering. It can be
// called once.
func (c *Clusterer) Finish() (*Result, error) {
	if c.done {
		return nil, errors.New("birch: Finish called twice")
	}
	c.done = true
	res, err := core.Finish(c.eng, c.points)
	c.points = nil
	return res, err
}

// StreamClusterer is the concurrent streaming engine: a thread-safe,
// always-on BIRCH front end. Writers fan points out to sharded CF trees
// through batched mailboxes with backpressure; the shard summaries merge
// losslessly by CF additivity into snapshots that readers query lock-free.
// See NewStreamClusterer and the package-level "Concurrent streaming"
// example.
//
// Method overview (all safe for concurrent use):
//
//   - Insert / InsertBatch stream points in, blocking only on
//     backpressure (cancellable via context); InsertSparse /
//     InsertSparseBatch are the sparse-point equivalents.
//   - Classify / Centroids / Snapshot serve reads from the current
//     immutable snapshot with a single atomic load — no locks, safe on
//     any goroutine at any rate, valid even after Close.
//   - Flush drains all pending inserts and publishes a fresh snapshot.
//   - Stats reports per-shard depth/leaf/outlier/page-I/O gauges.
//   - Close drains, publishes a final snapshot, and stops the engine.
type StreamClusterer = stream.Engine

// StreamOptions tunes the concurrency shape of a StreamClusterer: shard
// count, per-shard mailbox depth, and the background compaction interval.
// The zero value is usable; see the field documentation.
type StreamOptions = stream.Options

// StreamSnapshot is an immutable published clustering: merged subcluster
// CFs, global clusters, centroids, and per-shard statistics. Snapshots
// stay valid (and consistent) forever once obtained.
type StreamSnapshot = stream.Snapshot

// StreamShardStats is the per-shard gauge set of a StreamClusterer.
type StreamShardStats = stream.ShardStats

// StreamEngineStats is the engine-wide gauge set of a StreamClusterer.
// (StreamStats, the older name, describes the single-goroutine
// Clusterer's Phase 1 state instead.)
type StreamEngineStats = stream.Stats

// ErrStreamClosed is returned by StreamClusterer operations after Close.
var ErrStreamClosed = stream.ErrClosed

// NewStreamClusterer creates and starts a concurrent streaming engine.
// Unlike New (one goroutine, explicit Finish), the returned engine serves
// inserts and classification queries concurrently for its whole lifetime;
// there is no terminal Finish, only snapshots that improve as data
// arrives. Phase 4 refinement never runs on this path (it would require
// re-scanning an unbounded stream), and shard trees never discard
// outliers — every accepted point's mass is present in every snapshot.
func NewStreamClusterer(cfg Config, opts StreamOptions) (*StreamClusterer, error) {
	return stream.New(cfg, opts)
}
