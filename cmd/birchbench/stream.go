package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"birch/internal/core"
	"birch/internal/stream"
	"birch/internal/vec"
)

// This file is the concurrent-ingest benchmark behind BENCH_stream.json.
// The workload is the streaming engine's reason to exist: sustained
// point ingestion from W writer goroutines WHILE the engine serves
// classification queries from reader goroutines — a live cluster-serving
// system, not a batch job.
//
// Two implementations run the identical offered load (same points, same
// writer count, same read request pattern):
//
//   - mutex: the natural lock-based design — one core.Engine guarded by a
//     sync.RWMutex. Writers Lock per insert; each classify RLocks and
//     scans the leaf chain for the nearest subcluster centroid (zero
//     allocations, reading the freshest possible state). This is the
//     strongest simple baseline: finer-grained locking of a CF tree is
//     an open research problem, and any caching layer for the read path
//     is precisely the snapshot design under test.
//
//   - stream: internal/stream — writers fan out per-point to sharded CF
//     trees through mailboxes; readers classify lock-free against the
//     latest published snapshot (staleness bounded by the 50 ms
//     compaction interval); a background compactor merges shard
//     summaries and republishes global clusters throughout the run. The
//     stream rows' wall clock additionally includes the final Flush
//     drain, so every accepted point is in a shard tree when the timer
//     stops — parity with Add-returned-means-inserted on the mutex side.
//
// Configuration is a DS1-scale serving envelope (K = 100 clusters under
// a 256 KB tree budget), so the tree carries O(1000) subcluster
// summaries — which is what makes the baseline's read path expensive and
// writer-blocking, and is exactly the regime the snapshot design targets.
//
// Reported per workload: points/sec (wall clock across all writers),
// p50/p99 single-insert latency (sampled every 16th insert per writer),
// and for stream rows the throughput ratio over the mutex row at the
// same writer count. On a multi-core host the stream engine additionally
// gains write parallelism from sharding; on a single-CPU host the entire
// measured gap comes from synchronization and read-service costs.

const streamFile = "BENCH_stream.json"

type streamSpec struct {
	Name    string
	Engine  string // "mutex" or "stream"
	Writers int
	Readers int
}

func streamSpecs() []streamSpec {
	return []streamSpec{
		{"mutex_w1", "mutex", 1, 2},
		{"mutex_w8", "mutex", 8, 2},
		{"stream_w1", "stream", 1, 2},
		{"stream_w8", "stream", 8, 2},
	}
}

// streamBenchConfig is a serving-system resource envelope: a DS1-scale
// cluster count (K = 100, Table 3) under a 256 KB tree budget, so the CF
// tree legitimately carries thousands of fine-grained subcluster
// summaries (a live classifier is provisioned for resolution, not for a
// 1996 memory ceiling). That resolution is what gives the baseline's
// freshest-possible read — a leaf-chain scan — real work to do, and it
// prices both engines' inserts identically. Phase 3 input is capped so
// the stream engine's periodic global clustering stays a bounded slice
// of the compaction interval.
func streamBenchConfig() core.Config {
	cfg := core.DefaultConfig(2, streamBenchK)
	cfg.Refine = false
	cfg.Memory = 256 << 10
	cfg.Phase3InputSize = 256
	return cfg
}

const (
	latencySampleEvery = 16
	// Read load: each reader issues a burst of readBurst classifies then
	// sleeps 1 ms — a fixed offered rate of roughly
	// readBurst × readers × 1000 queries/sec against either engine.
	readBurst      = 192
	readSleep      = time.Millisecond
	compactEvery   = 50 * time.Millisecond
	streamPoints   = 200000
	streamBenchDim = 2
	streamBenchK   = 100 // DS1-scale cluster count (Table 3)
)

func runStreamWorkloads(quick bool, reps, _ int) map[string]Workload {
	n := streamPoints
	if quick {
		n /= 10
	}
	const seed = 301
	pts := blobs(seed, streamBenchDim, streamBenchK, n)

	out := make(map[string]Workload)
	for _, spec := range streamSpecs() {
		w := Workload{Dim: streamBenchDim, Points: n, Seed: seed, Workers: spec.Writers, Readers: spec.Readers}
		best := streamSample{}
		for r := 0; r < reps; r++ {
			var s streamSample
			switch spec.Engine {
			case "mutex":
				s = runMutexIngest(pts, spec.Writers, spec.Readers)
			case "stream":
				s = runStreamIngest(pts, spec.Writers, spec.Readers)
			}
			if s.pps > best.pps {
				best = s
			}
		}
		w.PointsPerSec = best.pps
		w.P50InsertNs = best.p50
		w.P99InsertNs = best.p99
		out[spec.Name] = w
	}

	// Speedup of the streaming engine over the mutex baseline at equal
	// writer counts — the number the concurrency design is accountable to.
	for _, writers := range []int{1, 8} {
		mName := fmt.Sprintf("mutex_w%d", writers)
		sName := fmt.Sprintf("stream_w%d", writers)
		m, s := out[mName], out[sName]
		if m.PointsPerSec > 0 {
			s.SpeedupVsMutex = s.PointsPerSec / m.PointsPerSec
			out[sName] = s
		}
	}
	return out
}

// streamSample is one timed concurrent-ingest run.
type streamSample struct {
	pps float64 // points per second, wall clock across all writers
	p50 float64 // median single-insert latency, ns
	p99 float64 // 99th percentile single-insert latency, ns
}

// latencyRecorder samples every Nth insert's latency into a per-writer
// slice (no shared state on the hot path; merged after the run).
type latencyRecorder struct {
	samples [][]float64
}

func newLatencyRecorder(writers, perWriter int) *latencyRecorder {
	lr := &latencyRecorder{samples: make([][]float64, writers)}
	for i := range lr.samples {
		lr.samples[i] = make([]float64, 0, perWriter/latencySampleEvery+1)
	}
	return lr
}

func (lr *latencyRecorder) percentiles() (p50, p99 float64) {
	var all []float64
	for _, s := range lr.samples {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Float64s(all)
	return all[len(all)/2], all[len(all)*99/100]
}

// runMutexIngest is the lock-based baseline under the full serving load.
func runMutexIngest(pts []vec.Vector, writers, readers int) streamSample {
	eng, err := core.NewEngine(streamBenchConfig())
	if err != nil {
		fatal(err)
	}
	eng.SetExpectedN(int64(len(pts)))
	var mu sync.RWMutex

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			q := vec.Vector{0, 0}
			scratch := vec.New(streamBenchDim)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < readBurst; j++ {
					q[0], q[1] = float64((j*25)%400), float64((i*25)%400)
					mu.RLock()
					// Nearest-subcluster scan over the live leaf chain:
					// the freshest answer a lock-based design can give,
					// at the cost of holding the read lock for the scan.
					bestD := math.Inf(1)
					for leaf := eng.Tree().FirstLeaf(); leaf != nil; leaf = leaf.Next() {
						ents := leaf.Entries()
						for e := range ents {
							c := ents[e].CF.CentroidInto(scratch)
							if d := vec.SqDist(q, c); d < bestD {
								bestD = d
							}
						}
					}
					mu.RUnlock()
				}
				time.Sleep(readSleep)
			}
		}(r)
	}

	lr := newLatencyRecorder(writers, len(pts)/writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		lo := len(pts) * w / writers
		hi := len(pts) * (w + 1) / writers
		wg.Add(1)
		go func(w int, slice []vec.Vector) {
			defer wg.Done()
			for i, p := range slice {
				sampled := i%latencySampleEvery == 0
				var t0 time.Time
				if sampled {
					t0 = time.Now()
				}
				mu.Lock()
				err := eng.Add(p)
				mu.Unlock()
				if sampled {
					lr.samples[w] = append(lr.samples[w], float64(time.Since(t0).Nanoseconds()))
				}
				if err != nil {
					fatal(err)
				}
			}
		}(w, pts[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	readerWG.Wait()

	p50, p99 := lr.percentiles()
	return streamSample{
		pps: float64(len(pts)) / elapsed.Seconds(),
		p50: p50,
		p99: p99,
	}
}

// runStreamIngest measures the sharded streaming engine under the
// identical offered load (same points, same per-point client calls, same
// read bursts).
func runStreamIngest(pts []vec.Vector, writers, readers int) streamSample {
	eng, err := stream.New(streamBenchConfig(), stream.Options{
		Shards:          writers,
		CompactInterval: compactEvery,
	})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			q := vec.Vector{0, 0}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < readBurst; j++ {
					q[0], q[1] = float64((j*25)%400), float64((i*25)%400)
					eng.Classify(q) // lock-free snapshot read
				}
				time.Sleep(readSleep)
			}
		}(r)
	}

	lr := newLatencyRecorder(writers, len(pts)/writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		lo := len(pts) * w / writers
		hi := len(pts) * (w + 1) / writers
		wg.Add(1)
		go func(w int, slice []vec.Vector) {
			defer wg.Done()
			for i, p := range slice {
				sampled := i%latencySampleEvery == 0
				var t0 time.Time
				if sampled {
					t0 = time.Now()
				}
				err := eng.Insert(ctx, p)
				if sampled {
					lr.samples[w] = append(lr.samples[w], float64(time.Since(t0).Nanoseconds()))
				}
				if err != nil {
					fatal(err)
				}
			}
		}(w, pts[lo:hi])
	}
	wg.Wait()
	if err := eng.Flush(ctx); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	close(stop)
	readerWG.Wait()

	if got := eng.Snapshot().Points; got != int64(len(pts)) {
		fatal(fmt.Errorf("stream bench: snapshot covers %d of %d points", got, len(pts)))
	}

	p50, p99 := lr.percentiles()
	return streamSample{
		pps: float64(len(pts)) / elapsed.Seconds(),
		p50: p50,
		p99: p99,
	}
}
