package main

import (
	"math"
	"time"

	"birch/internal/core"
	"birch/internal/dataset"
)

// heldOutSeed is reserved for validating a performance claim after the
// change was written against other seeds; no tuning uses it.
const heldOutSeed = 4242

// defaultSeed reproduces the paper's Table 3 datasets: DS1, DS2 and DS3
// are generated from seeds 1001, 1002 and 1003.
const defaultSeed = 1001

// workload is one input family. Every workload runs the same two
// stages on its own data, so that each end-to-end metric is measured on
// each workload: a batch stage (birch.Cluster over the seeded datasets)
// and a serve stage (an in-process birchd fed with points from the
// serving stream). The shares say how the run's --seconds are split.
//
// The serving stream is fixed, not seeded. birchd's shard trees start at
// threshold 0 and escalate it on memory pressure, and that escalation is
// chaotic in the stream: across GaussianMixture seeds a 40k-point
// preload ends with anywhere from 1 to 4493 shard subclusters and a
// first publish of 0.07–0.73 s, so a seeded stream would measure the
// seed rather than the code. The seed still drives every batch input.
type workload struct {
	name   string
	build  func(seed int64) []*dataset.Dataset // batch datasets
	stream func() *dataset.Dataset             // serving stream
	cfg    core.Config                         // batch configuration
	serve  serveSpec

	batchShare   float64 // of --seconds, for the measured batch passes
	nominalShare float64 // of --seconds, for the nominal serving stage
}

// serveSpec is the serving deployment of one workload.
type serveSpec struct {
	Dim, K  int
	Memory  int // CF-tree budget in bytes (0 = the paper's 80 KB)
	Shards  int
	Preload int
	Batch   int           // points per request
	Rate    float64       // nominal requests per second, per client
	Compact time.Duration // background compaction period
}

func (s serveSpec) config() core.Config {
	cfg := core.DefaultConfig(s.Dim, s.K)
	if s.Memory > 0 {
		cfg.Memory = s.Memory
	}
	return cfg
}

// birchdServe is birchd's flag defaults (500 ms compaction, 64-point
// batches, WAL sync only at rotation, checkpoint and close) plus the
// deployment every workload shares: two shards and a 40k-point preload.
// rate is the nominal requests per second per client, chosen at about
// half of the highest rate each workload sustained with p99 ≤ 10 ms on a
// 2-vCPU host.
func birchdServe(dim, k, memory int, rate float64) serveSpec {
	return serveSpec{
		Dim: dim, K: k, Memory: memory,
		Shards: 2, Preload: 40000, Batch: 64,
		Rate: rate, Compact: 500 * time.Millisecond,
	}
}

// scaledMemory is the internal/bench dimension-scaling rule: a CF entry
// is O(d) bytes, so the paper's 80 KB budget at d=2 scales by d/2.
func scaledMemory(d int) int { return 80 * 1024 * d / 2 }

// table3 builds the paper's base workload in both input orders from the
// Table 3 parameters, with DS1/DS2/DS3 drawn from seed, seed+1, seed+2.
func table3(seed int64) []*dataset.Dataset {
	var sets []*dataset.Dataset
	for _, order := range []dataset.Order{dataset.Ordered, dataset.Randomized} {
		for i, pat := range []dataset.Pattern{dataset.Grid, dataset.Sine, dataset.Random} {
			p := dataset.Params{
				Pattern: pat, K: 100,
				NLow: 1000, NHigh: 1000, RLow: math.Sqrt2, RHigh: math.Sqrt2,
				KG: 4, NC: 4, Order: order, Seed: seed + int64(i),
			}
			if pat == dataset.Random {
				p.NLow, p.NHigh, p.RLow, p.RHigh = 0, 2000, 0, 4
			}
			ds, err := dataset.Generate(p)
			if err != nil {
				panic("table 3 parameters are valid: " + err.Error())
			}
			ds.Name = "DS" + string(rune('1'+i))
			if order == dataset.Randomized {
				ds.Name += "o"
			}
			sets = append(sets, ds)
		}
	}
	return sets
}

// serveSeed fixes the serving streams (see workload).
const serveSeed = 1

// ds1o is the paper's grid dataset in random order, at the Table 3 seed.
func ds1o() *dataset.Dataset { return table3(defaultSeed)[3] }

func gaussian(dim, k, nPer int) func(seed int64) []*dataset.Dataset {
	return func(seed int64) []*dataset.Dataset {
		return []*dataset.Dataset{dataset.GaussianMixture(dim, k, nPer, 8, 1, seed)}
	}
}

// gaussians builds n mixtures from seeds seed … seed+n−1: averaging a
// pass over several draws damps the seed-to-seed swing in Phase 1 and
// Phase 4 cost that one small mixture shows.
func gaussians(dim, k, nPer, n int) func(seed int64) []*dataset.Dataset {
	return func(seed int64) []*dataset.Dataset {
		var sets []*dataset.Dataset
		for i := 0; i < n; i++ {
			sets = append(sets, dataset.GaussianMixture(dim, k, nPer, 8, 1, seed+int64(i)))
		}
		return sets
	}
}

func gaussianStream(dim, k, nPer int) func() *dataset.Dataset {
	return func() *dataset.Dataset { return dataset.GaussianMixture(dim, k, nPer, 8, 1, serveSeed) }
}

func withMemory(cfg core.Config, m int) core.Config {
	cfg.Memory = m
	return cfg
}

var workloads = []workload{
	{
		name:         "paper_table4",
		build:        table3,
		stream:       ds1o,
		cfg:          core.DefaultConfig(2, 100),
		serve:        birchdServe(2, 100, 0, 1000),
		batchShare:   0.5,
		nominalShare: 0.5,
	},
	{
		name:         "scale_d16",
		build:        gaussian(16, 100, 10000),
		stream:       gaussianStream(16, 100, 2000),
		cfg:          withMemory(core.DefaultConfig(16, 100), scaledMemory(16)),
		serve:        birchdServe(16, 100, scaledMemory(16), 500),
		batchShare:   0.6,
		nominalShare: 0.4,
	},
	{
		name:         "serve_mixed",
		build:        gaussians(8, 32, 1250, 4),
		stream:       gaussianStream(8, 32, 5000),
		cfg:          withMemory(core.DefaultConfig(8, 32), scaledMemory(8)),
		serve:        birchdServe(8, 32, 4<<20, 1000),
		batchShare:   0.45,
		nominalShare: 0.55,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
