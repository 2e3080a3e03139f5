package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"birch"
	"birch/internal/core"
	"birch/internal/dataset"
	"birch/internal/quality"
	"birch/internal/vec"
)

// batchOut is what the untraced batch stage measured.
type batchOut struct {
	Calls   int64
	Points  int64
	Wall    time.Duration // of the measured birch.Cluster calls
	Quality float64       // mean over datasets of BIRCH D̄ ÷ actual D̄
	AllocB  uint64
}

// cluster runs birch.Cluster and checks the cluster count.
func cluster(ds *dataset.Dataset, cfg core.Config) (*core.Result, error) {
	res, err := birch.Cluster(ds.Points, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ds.Name, err)
	}
	if len(res.Clusters) != cfg.K {
		return nil, fmt.Errorf("%s: %d clusters, want K=%d", ds.Name, len(res.Clusters), cfg.K)
	}
	return res, nil
}

// actualDiameter is D̄ of the generator's own clusters.
func actualDiameter(ds *dataset.Dataset) float64 {
	return quality.WeightedAvgDiameter(quality.FromLabels(ds.Points, ds.Labels, len(ds.Centers)))
}

// runBatch clusters every dataset once to warm up (and to score
// quality, which is deterministic), then repeats whole passes over the
// datasets until budget is spent, with at least minPasses passes.
// between, when set, runs after every pass with the time elapsed; its
// work is kept out of the pass's time and allocation counts.
func runBatch(sets []*dataset.Dataset, cfg core.Config, budget time.Duration, between func(elapsed time.Duration)) (batchOut, error) {
	const minPasses = 3
	var out batchOut
	for _, ds := range sets {
		res, err := cluster(ds, cfg)
		if err != nil {
			return out, err
		}
		out.Quality += quality.WeightedAvgDiameter(res.Clusters) / actualDiameter(ds)
	}
	out.Quality /= float64(len(sets))

	var m0, m1 runtime.MemStats
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < budget; pass++ {
		runtime.ReadMemStats(&m0)
		for _, ds := range sets {
			t0 := time.Now()
			if _, err := cluster(ds, cfg); err != nil {
				return out, err
			}
			out.Wall += time.Since(t0)
			out.Points += int64(len(ds.Points))
			out.Calls++
		}
		runtime.ReadMemStats(&m1)
		out.AllocB += m1.TotalAlloc - m0.TotalAlloc
		if between != nil {
			between(time.Since(start))
		}
	}
	return out, nil
}

// phase1Trace is what timing every core.Engine.Add call shows. A call
// is a rebuild when the engine's rebuild counter moved, a split when the
// tree gained nodes, and an absorb otherwise (including delay-split
// spills to the outlier disk, which leave the tree unchanged).
type phase1Trace struct {
	AddNs                     []int64
	Absorb, Split, Rebuild    time.Duration
	Absorbs, Splits, Rebuilds int64
}

// tracedCluster is birch.Cluster (core.Run) unrolled so that every
// layer call is timed from outside: engine construction, each Add, and
// the pipeline tail, whose phases are split by the result's own stats.
func tracedCluster(tr *Tracer, req int64, ds *dataset.Dataset, cfg core.Config, p1 *phase1Trace) (*core.Result, error) {
	t0 := time.Now()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	eng.SetExpectedN(int64(len(ds.Points)))
	loopStart := time.Now()
	var absorb, split, rebuild time.Duration
	var nAbsorb, nSplit, nRebuild int64
	for _, p := range ds.Points {
		nodes, rebuilds := eng.Tree().Nodes(), eng.CounterStats().Rebuilds
		s := time.Now()
		err := eng.Add(p)
		d := time.Since(s)
		if err != nil {
			return nil, err
		}
		p1.AddNs = append(p1.AddNs, int64(d))
		switch {
		case eng.CounterStats().Rebuilds != rebuilds:
			rebuild += d
			nRebuild++
		case eng.Tree().Nodes() > nodes:
			split += d
			nSplit++
		default:
			absorb += d
			nAbsorb++
		}
	}
	loopEnd := time.Now()
	res, err := core.Finish(eng, ds.Points)
	end := time.Now()
	if err != nil {
		return nil, err
	}

	// The Add calls hang directly off the root, so the benchmark's own
	// loop and timer overhead between them is the root's self time: the
	// part of the end-to-end time no layer span covers.
	root := tr.Add("batch.cluster", 0, req, t0, end)
	tr.Add("core.new_engine", root, req, t0, loopStart)
	tr.AddAggregate("cftree.absorb", root, req, loopStart, loopEnd, absorb, nAbsorb)
	tr.AddAggregate("cftree.split", root, req, loopStart, loopEnd, split, nSplit)
	tr.AddAggregate("core.rebuild", root, req, loopStart, loopEnd, rebuild, nRebuild)
	fin := tr.Add("core.finish", root, req, loopEnd, end)
	st := res.Stats
	tr.AddAggregate("core.phase2", fin, req, loopEnd, end, st.Phase2.Duration, 1)
	tr.AddAggregate("hc.phase3", fin, req, loopEnd, end, st.Phase3.Duration, 1)
	tr.AddAggregate("kmeans.phase4", fin, req, loopEnd, end, st.Phase4.Duration, 1)

	p1.Absorb += absorb
	p1.Split += split
	p1.Rebuild += rebuild
	p1.Absorbs += nAbsorb
	p1.Splits += nSplit
	p1.Rebuilds += nRebuild
	return res, nil
}

// sameCentroids reports whether two centroid sets are bit-identical.
func sameCentroids(a, b []vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// batchTraceOut is the traced batch stage's per-layer view.
type batchTraceOut struct {
	P1                             phase1Trace
	Phase2, Phase3, Phase4         time.Duration
	Phase3Inputs, LeafEntries      float64 // means over datasets
	TreeHeight                     int     // max over datasets
	OutWritten, OutRead, PageWrite int64
	OverheadPct                    float64
}

// runBatchTraced clusters each dataset untraced and traced, checks the
// two give bit-identical centroids, and compares their wall times.
func runBatchTraced(tr *Tracer, sets []*dataset.Dataset, cfg core.Config) (batchTraceOut, error) {
	var out batchTraceOut
	var plain, traced time.Duration
	for i, ds := range sets {
		t0 := time.Now()
		ref, err := cluster(ds, cfg)
		if err != nil {
			return out, err
		}
		plain += time.Since(t0)
		t0 = time.Now()
		res, err := tracedCluster(tr, int64(i+1), ds, cfg, &out.P1)
		if err != nil {
			return out, fmt.Errorf("%s traced: %w", ds.Name, err)
		}
		traced += time.Since(t0)
		if !sameCentroids(ref.Centroids, res.Centroids) {
			return out, fmt.Errorf("%s: traced and untraced centroids differ", ds.Name)
		}
		st := res.Stats
		out.Phase2 += st.Phase2.Duration
		out.Phase3 += st.Phase3.Duration
		out.Phase4 += st.Phase4.Duration
		out.Phase3Inputs += float64(st.Phase3.Inputs) / float64(len(sets))
		out.LeafEntries += float64(st.Phase1.LeafEntries) / float64(len(sets))
		out.TreeHeight = max(out.TreeHeight, st.Phase1.TreeHeight)
		out.OutWritten += st.IO.OutliersWritten
		out.OutRead += st.IO.OutliersRead
		out.PageWrite += st.IO.PageWrites
	}
	out.OverheadPct = 100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds()
	return out, nil
}
