package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"birch/internal/cf"
	"birch/internal/vec"
)

// RunParallel is the data-parallel execution the paper's Section 7 lists
// as future work ("we will study ... parallelism"). It exploits exactly
// the property that makes BIRCH parallel-friendly: CF additivity.
//
// The input is sharded across `workers` goroutines. Each worker runs an
// independent Phase 1 over its shard with a proportional slice of the
// memory budget, producing a set of leaf-entry CF summaries. Because CFs
// add, shard summaries can be combined by feeding them through a second,
// cheap Phase 1 whose "points" are subclusters.
//
// The combine step is a pairwise tree reduction rather than one
// sequential merge engine: at each round, adjacent summary pairs merge
// concurrently (an odd summary passes through), halving the summary
// count, so the reduction finishes in ⌈log₂ workers⌉ rounds and the
// final engine consumes only the last pair. A single merge engine would
// re-insert every shard's summaries sequentially into one ever-growing
// tree — an Amdahl bottleneck that caps speedup no matter how many
// shards run concurrently. Each reduction engine starts from the larger
// of its pair's final thresholds, so incoming summaries absorb rather
// than explode the tree; Phases 2–4 then proceed unchanged on the merged
// tree.
//
// The result is not bit-identical to the sequential run — subcluster
// boundaries depend on insertion grouping — but the paper's own
// order-insensitivity argument applies: the summaries, and therefore the
// global clustering, agree to within the same tolerance as reordering
// the input does.
func RunParallel(points []vec.Vector, cfg Config, workers int) (*Result, error) {
	if len(points) == 0 {
		return nil, errors.New("core: no points")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(points) < 2*workers {
		return Run(points, cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	total := time.Now()

	// Shard configuration: each worker gets an equal slice of the memory
	// budget (floored at one page so tiny budgets still validate).
	shardCfg := cfg
	shardCfg.Memory = cfg.Memory / workers
	if shardCfg.Memory < cfg.PageSize {
		shardCfg.Memory = cfg.PageSize
	}
	shardCfg.Refine = false // refinement happens once, globally
	shardCfg.Phase2 = false

	type shardOut struct {
		sum   Summary
		stats Phase1Stats
		err   error
	}
	outs := make([]shardOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := len(points) * w / workers
		hi := len(points) * (w + 1) / workers
		wg.Add(1)
		go func(w int, shard []vec.Vector) {
			defer wg.Done()
			eng, err := NewEngine(shardCfg)
			if err != nil {
				outs[w].err = err
				return
			}
			eng.SetExpectedN(int64(len(shard)))
			if err := eng.addPoints(shard); err != nil {
				outs[w].err = err
				return
			}
			outs[w].stats = eng.FinishPhase1()
			outs[w].sum = Summary{
				CFs:       eng.Tree().LeafCFs(),
				Threshold: outs[w].stats.FinalThreshold,
			}
		}(w, points[lo:hi])
	}
	wg.Wait()

	// Collect shard results. truePoints sums the shards' scanned inputs —
	// the reduction engines below re-feed the same underlying points as
	// summaries, so their own scanned counters multi-count and must not
	// leak into the reported stats.
	sums := make([]Summary, 0, workers)
	var truePoints, spills, discards int64
	rebuilds := 0
	for w := range outs {
		if outs[w].err != nil {
			return nil, fmt.Errorf("core: parallel shard %d: %w", w, outs[w].err)
		}
		truePoints += outs[w].stats.Points
		spills += outs[w].stats.OutlierSpills
		discards += outs[w].stats.OutliersFinal
		rebuilds += outs[w].stats.Rebuilds
		sums = append(sums, outs[w].sum)
	}

	// Pairwise reduction rounds: halve the summary list until at most two
	// summaries remain for the final engine.
	sums, redRebuilds, err := ReduceSummaries(cfg, sums, 2)
	if err != nil {
		return nil, fmt.Errorf("core: parallel reduction: %w", err)
	}
	rebuilds += redRebuilds

	// Final merge: the last pair (or single summary) feeds the engine
	// that carries the tree into Phases 2–4 under the caller's full
	// configuration and memory budget.
	mergeCfg := cfg
	for _, s := range sums {
		if s.Threshold > mergeCfg.InitialThreshold {
			mergeCfg.InitialThreshold = s.Threshold
		}
	}
	eng, err := NewEngine(mergeCfg)
	if err != nil {
		return nil, err
	}
	var merged int64
	for _, s := range sums {
		merged += s.Points()
	}
	eng.SetExpectedN(merged)
	for _, s := range sums {
		for i := range s.CFs {
			if err := eng.AddCF(s.CFs[i]); err != nil {
				return nil, fmt.Errorf("core: parallel merge: %w", err)
			}
		}
	}

	res, err := Finish(eng, points)
	if err != nil {
		return nil, err
	}
	// Surface the aggregate shard and reduction work in the Phase 1
	// stats, and report the true number of input points scanned: the
	// final engine's own counter saw condensed summaries, not the data.
	res.Stats.Phase1.Rebuilds += rebuilds
	res.Stats.Phase1.OutlierSpills += spills
	res.Stats.Phase1.OutliersFinal += discards
	res.Stats.Phase1.Points = truePoints
	res.Stats.Total = time.Since(total)
	return res, nil
}

// Summary is one reduction operand: the leaf-entry CF summaries of one
// tree (a shard's, or an already-merged group's) plus the final threshold
// the tree satisfied. It is the unit of the pairwise CF-merge reduction
// shared by RunParallel and the streaming engine (internal/stream).
type Summary struct {
	CFs       []cf.CF
	Threshold float64
}

// Points returns the total data-point mass summarized (Σ N over CFs).
func (s Summary) Points() int64 {
	var n int64
	for i := range s.CFs {
		n += s.CFs[i].N
	}
	return n
}

// ReduceSummaries pairwise-merges sums until at most target summaries
// remain, running each round's pair merges concurrently — ⌈log₂ len⌉
// rounds instead of one sequential Amdahl-bottleneck merge. Reduction
// engines never discard data (outlier handling off), so the total N/LS/SS
// mass of the result equals the input's exactly. It returns the reduced
// list (pair order preserved, so a fixed input order yields a fixed
// reduction shape) and the number of tree rebuilds the reduction cost.
func ReduceSummaries(cfg Config, sums []Summary, target int) ([]Summary, int, error) {
	if target < 1 {
		target = 1
	}
	rebuilds := 0
	for len(sums) > target {
		pairs := len(sums) / 2
		next := make([]Summary, pairs, pairs+1)
		// Reduction engines at this round run concurrently, so they split
		// the memory budget the same way the Phase 1 shards do.
		mem := cfg.Memory / pairs
		if mem < cfg.PageSize {
			mem = cfg.PageSize
		}
		errs := make([]error, pairs)
		stats := make([]Phase1Stats, pairs)
		var rwg sync.WaitGroup
		for i := 0; i < pairs; i++ {
			rwg.Add(1)
			go func(i int) {
				defer rwg.Done()
				next[i], stats[i], errs[i] = mergeSummaryPair(cfg, sums[2*i], sums[2*i+1], mem)
			}(i)
		}
		rwg.Wait()
		for i := 0; i < pairs; i++ {
			if errs[i] != nil {
				return nil, rebuilds, errs[i]
			}
			rebuilds += stats[i].Rebuilds
		}
		if len(sums)%2 == 1 {
			next = append(next, sums[len(sums)-1])
		}
		sums = next
	}
	return sums, rebuilds, nil
}

// mergeSummaryPair combines two summaries through a small Phase 1 engine.
// The engine starts from the larger of the pair's thresholds (every
// incoming CF already satisfies its own shard's threshold, so starting
// lower would only force immediate escalations) and runs with outlier
// handling off: a reduction step must never discard data, since later
// rounds and Phase 4 still expect to see every point's mass.
func mergeSummaryPair(cfg Config, a, b Summary, memory int) (Summary, Phase1Stats, error) {
	mcfg := cfg
	mcfg.Memory = memory
	mcfg.Refine = false
	mcfg.Phase2 = false
	mcfg.OutlierHandling = false
	mcfg.DelaySplit = false
	if a.Threshold > mcfg.InitialThreshold {
		mcfg.InitialThreshold = a.Threshold
	}
	if b.Threshold > mcfg.InitialThreshold {
		mcfg.InitialThreshold = b.Threshold
	}

	eng, err := NewEngine(mcfg)
	if err != nil {
		return Summary{}, Phase1Stats{}, err
	}
	eng.SetExpectedN(a.Points() + b.Points())
	for _, s := range [2]Summary{a, b} {
		for i := range s.CFs {
			if err := eng.AddCF(s.CFs[i]); err != nil {
				return Summary{}, Phase1Stats{}, err
			}
		}
	}
	stats := eng.FinishPhase1()
	return Summary{
		CFs:       eng.Tree().LeafCFs(),
		Threshold: stats.FinalThreshold,
	}, stats, nil
}
