// Command perfbench is the repository's benchmark: it runs one workload
// end to end, checks that the outputs are correct, and prints every
// metric by name with its unit. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload paper_table4 --seed 1001 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// times the calls into each layer from outside the program, prints the
// per-layer metrics and writes the spans to .bench_build/trace/.
// The last line of standard output is the result object; the line
// before it is the environment envelope. See README.md for the
// workloads and the metric definitions.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"birch"
	"birch/internal/dataset"
	"birch/internal/server"
	"birch/internal/vec"
)

// setupReps is how many times a run repeats each set-up; setup_s is the
// median.
const setupReps = 3

// recoverReps is how many crash-image recoveries an untraced run times;
// recover_s is the median.
const recoverReps = 5

// Envelope labels every output with what produced it.
type Envelope struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Clients      int    `json:"clients"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: paper_table4 | scale_d16 | serve_mixed")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("input seed (%d reproduces Table 3; %d is held out for validating claims)", defaultSeed, heldOutSeed))
	seconds := fl.Int("seconds", 20, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fl.String("out", ".bench_build", "scratch directory for stores and traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	env := envelope(w.name, *seed, *seconds, *trace)
	line, _ := json.Marshal(map[string]Envelope{"envelope": env})
	fmt.Fprintln(stdout, string(line))

	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir, env, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err = json.Marshal(res)
	if err != nil { // a NaN metric: some stage measured nothing
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload sets up and runs the serve stage of w, then sets up and
// runs the batch stage, with the crash recoveries spread over it. A
// correctness failure marks the result incorrect; an error is returned
// only when the run could not be carried out at all.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool, outDir string, env Envelope, logw io.Writer) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	check := func(err error) {
		if err != nil {
			res.Correct = false
			fmt.Fprintf(logw, "perfbench: check failed: %v\n", err)
		}
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	epoch := time.Now()
	tr := NewTracer(epoch)

	// Serve set-up: build the stream, open a fresh store, preload,
	// publish and listen, setupReps times; the last rig serves.
	storeRoot := filepath.Join(outDir, "serve", w.name)
	defer os.RemoveAll(storeRoot)
	var rg *rig
	var err error
	var serveSetup []float64
	for i := 0; i < setupReps; i++ {
		if rg != nil {
			if err := rg.shutdown(); err != nil {
				return res, err
			}
			if err := os.RemoveAll(rg.dir); err != nil {
				return res, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		pool := w.stream()
		rg, err = startRig(filepath.Join(storeRoot, fmt.Sprintf("store%d", i)), w.serve, pool.Points, traced, epoch)
		if err != nil {
			return res, err
		}
		serveSetup = append(serveSetup, time.Since(t0).Seconds())
	}

	// Nominal stage.
	var rt *reqTrace
	if traced {
		rt = &reqTrace{tr: tr}
	}
	var s0 runtime.MemStats
	runtime.ReadMemStats(&s0)
	nominalDur := time.Duration(float64(budget) * w.nominalShare)
	nom, err := rg.runNominal(nominalDur, rt)
	if err != nil {
		_ = rg.shutdown()
		return res, err
	}
	serveReqs := int64(len(nom.stage.ins) + len(nom.stage.cls))
	res.Attempted += serveReqs
	res.Failed += nom.stage.errs
	check(rg.checkPublished("after the nominal stage"))
	check(rg.checkClassify())

	// Crash image: the store as a kill -9 would leave it now.
	crashDir := filepath.Join(storeRoot, "crash")
	imageBytes, err := copyDir(rg.dir, crashDir)
	if err != nil {
		_ = rg.shutdown()
		return res, err
	}
	atCrash := int64(w.serve.Preload) + rg.acked.Load()

	var s1 runtime.MemStats
	runtime.ReadMemStats(&s1)
	insSt, clsSt := Summarize(nom.stage.ins), Summarize(nom.stage.cls)
	fmt.Fprintf(logw, "perfbench: nominal insert p50 %.3f ms p%.1f %.3f ms, classify p50 %.3f ms p%.1f %.3f ms, %d requests per kind\n",
		ms(insSt.P50), float64(insSt.TailQ)/10, ms(insSt.Tail), ms(clsSt.P50), float64(clsSt.TailQ)/10, ms(clsSt.Tail), insSt.N)
	var wire wireOut
	if traced {
		wire = timeWire(rg, 2000)
	}
	if err := rg.shutdown(); err != nil {
		return res, err
	}
	rg.pool = nil

	// Batch set-up: build the inputs and construct an engine, setupReps
	// times; the last inputs are kept. It runs after serving so that the
	// serve stage never shares the heap with the batch datasets (1M
	// points on scale_d16), whose marking would tax its latencies.
	var sets []*dataset.Dataset
	var batchSetup []float64
	for i := 0; i < setupReps; i++ {
		sets = nil
		runtime.GC()
		t0 := time.Now()
		sets = w.build(seed)
		if _, err := birch.New(w.cfg); err != nil {
			return res, err
		}
		batchSetup = append(batchSetup, time.Since(t0).Seconds())
	}
	fmt.Fprintf(logw, "perfbench: set-up serve %.3v s, batch %.3v s\n", serveSetup, batchSetup)
	setup := Median(batchSetup) + Median(serveSetup)

	// Batch stage. Recoveries from the crash image are spread over it,
	// one before the first measured pass and the rest at even intervals,
	// so that recover_s samples the host across the run instead of over
	// a few seconds.
	reps := recoverReps
	if traced {
		reps = 1
	}
	var recs []float64
	var rec0 recoveryOut
	recoverNow := func() {
		d, rec, err := recoverOnce(crashDir, filepath.Join(storeRoot, "recover"), w.serve, atCrash)
		if err != nil {
			check(err)
			reps = 0
			return
		}
		recs = append(recs, d.Seconds())
		fmt.Fprintf(logw, "perfbench: recovery %d replayed %d points in %.3f s\n", len(recs), rec.ReplayedPoints, d.Seconds())
		rec0 = recoveryOut{points: rec.ReplayedPoints, records: rec.ReplayedRecords}
	}
	recoverNow()
	batchBudget := time.Duration(float64(budget) * w.batchShare)
	var bo batchOut
	var bt batchTraceOut
	if traced {
		bt, err = runBatchTraced(tr, sets, w.cfg)
	} else {
		bo, err = runBatch(sets, w.cfg, batchBudget, func(elapsed time.Duration) {
			if len(recs) < reps && elapsed >= time.Duration(len(recs))*batchBudget/time.Duration(reps) {
				recoverNow()
			}
		})
		res.Attempted += bo.Calls
	}
	if err != nil {
		check(err)
		res.Failed++
		res.Attempted++
	}
	for len(recs) < reps {
		recoverNow()
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	if !traced {
		// Each stage's bytes per point is steady; their mean does not
		// depend on how many batch passes the host's speed allowed.
		servePts := serveReqs * int64(w.serve.Batch)
		serveAlloc := s1.TotalAlloc - s0.TotalAlloc
		put("setup_s", "s", setup)
		put("cluster_pts_per_s", "pts/s", float64(bo.Points)/bo.Wall.Seconds())
		put("quality_d_ratio", "ratio", bo.Quality)
		put("alloc_b_per_pt", "B/pt", (float64(bo.AllocB)/float64(bo.Points)+float64(serveAlloc)/float64(servePts))/2)
		put("insert_p50_ms", "ms", ms(insSt.P50))
		put("classify_p50_ms", "ms", ms(clsSt.P50))
		put("freshness_p99_ms", "ms", ms(Percentile(Sorted(nom.fresh), p99)))
		put("recover_s", "s", Median(recs))
		return res, nil
	}

	// Per-layer metrics of the traced run.
	p1 := bt.P1
	addNs := Sorted(p1.AddNs)
	put("core.add_ns_p50", "ns", float64(Percentile(addNs, p50)))
	put("core.add_ns_p99", "ns", float64(Percentile(addNs, p99)))
	put("core.absorb_s", "s", p1.Absorb.Seconds())
	put("core.split_s", "s", p1.Split.Seconds())
	put("core.splits", "count", float64(p1.Splits))
	put("core.rebuild_s", "s", p1.Rebuild.Seconds())
	put("core.rebuilds", "count", float64(p1.Rebuilds))
	put("core.leaf_entries", "count", bt.LeafEntries)
	put("core.tree_height", "count", float64(bt.TreeHeight))
	put("core.phase2_s", "s", bt.Phase2.Seconds())
	put("hc.phase3_s", "s", bt.Phase3.Seconds())
	put("hc.phase3_inputs", "count", bt.Phase3Inputs)
	put("kmeans.phase4_s", "s", bt.Phase4.Seconds())
	put("pager.outliers_written", "count", float64(bt.OutWritten))
	put("pager.outliers_read", "count", float64(bt.OutRead))
	put("pager.page_writes", "count", float64(bt.PageWrite))

	pcts := func(prefix string, xs []time.Duration) {
		s := Sorted(xs)
		put(prefix+"_p50", "us", us(Percentile(s, p50)))
		put(prefix+"_p99", "us", us(Percentile(s, p99)))
	}
	pcts("server.insert_pre_us", rt.insPre)
	pcts("server.insert_post_us", rt.insPost)
	pcts("server.classify_pre_us", rt.clsPre)
	pcts("server.classify_post_us", rt.clsPost)
	put("server.pts_per_flush_insert", "pts", nom.gauges.AvgInsertBatch)
	put("server.pts_per_flush_classify", "pts", nom.gauges.AvgClassifyBatch)
	put("server.rejected_429", "count", float64(nom.gauges.Rejected429))
	put("wire.encode_points_us", "us", us(wire.encode))
	put("wire.decode_points_us", "us", us(wire.decode))
	put("wire.encode_result_us", "us", us(wire.encodeResult))
	pcts("stream.insert_batch_us", rg.tb.insertDurations())
	pcts("stream.classify_batch_us", wire.classify)
	put("stream.merge_ms_p50", "ms", ms(Percentile(Sorted(nom.merge), p50)))
	put("stream.flush_ms", "ms", ms(nom.flush))
	put("stream.lag_pts_p99", "pts", float64(Percentile(Sorted(nom.mon.lag), p99)))
	put("stream.snapshot_age_ticks_max", "count", float64(nom.mon.ageMax))
	put("stream.compactions", "count", float64(nom.compacted))

	ios := rg.io.snapshot()
	inserted := float64(atCrash)
	put("pager.wal_writes", "count", float64(ios.WALWrites))
	put("pager.wal_syncs", "count", float64(ios.WALSyncs))
	put("pager.wal_bytes_per_pt", "B/pt", float64(ios.WALBytes)/inserted)
	put("pager.wal_write_us_p99", "us", us(Percentile(Sorted(ios.WriteDur), p99)))
	put("pager.wal_sync_ms_p99", "ms", ms(Percentile(Sorted(ios.SyncDur), p99)))
	put("pager.store_bytes_per_pt", "B/pt", float64(imageBytes)/inserted)
	put("stream.replay_pts", "count", float64(rec0.points))
	put("stream.replay_records", "count", float64(rec0.records))

	put("runtime.gc_cycles", "count", float64(m1.NumGC-s0.NumGC))
	put("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-s0.PauseTotalNs)/1e6)
	put("loadgen.late_ms_max", "ms", ms(max(insSt.LateMax, clsSt.LateMax)))
	put("trace.overhead_pct", "%", bt.OverheadPct)
	spans := tr.Spans()
	put("trace.unattributed_pct", "%", UnattributedPct(spans))
	if rt.unmatched > 0 {
		fmt.Fprintf(logw, "perfbench: %d requests could not be matched to a backend call\n", rt.unmatched)
	}
	traceDir := filepath.Join(outDir, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return res, err
	}
	if err := WriteTrace(filepath.Join(traceDir, w.name+".jsonl"), env, spans); err != nil {
		return res, err
	}
	return res, nil
}

type recoveryOut struct{ points, records int64 }

// wireOut is the codec and engine micro-timing of the traced run.
type wireOut struct {
	encode, decode, encodeResult time.Duration // medians per call
	classify                     []time.Duration
}

// timeWire times the binary codec and Snapshot.ClassifyBatch directly
// on n of the run's own 64-point batches, reusing buffers the way the
// server's hot paths do.
func timeWire(rg *rig, n int) wireOut {
	var out wireOut
	var enc, dec, encRes []time.Duration
	var frame, resFrame []byte
	var backing []float64
	var pts []vec.Vector
	snap := rg.eng.Snapshot()
	for k := 0; k < n; k++ {
		b := rg.batchAt(0, int64(k))
		t0 := time.Now()
		frame, _ = server.AppendPointsFrame(frame[:0], b, rg.spec.Dim)
		t1 := time.Now()
		_, payload, _ := server.DecodeFrame(frame)
		backing, pts, _ = server.DecodePointsInto(payload, rg.spec.Dim, backing, pts)
		t2 := time.Now()
		idx, dist, _ := snap.ClassifyBatch(b, 1)
		t3 := time.Now()
		resFrame = server.AppendClassifyResultFrame(resFrame[:0], idx, dist)
		t4 := time.Now()
		enc = append(enc, t1.Sub(t0))
		dec = append(dec, t2.Sub(t1))
		out.classify = append(out.classify, t3.Sub(t2))
		encRes = append(encRes, t4.Sub(t3))
	}
	out.encode = Percentile(Sorted(enc), p50)
	out.decode = Percentile(Sorted(dec), p50)
	out.encodeResult = Percentile(Sorted(encRes), p50)
	return out
}

// envelope describes the environment of this run.
func envelope(name string, seed int64, seconds, trace int) Envelope {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Envelope{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		Commit:       commit,
		SourceSHA256: sourceHash("."),
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Clients:      clientCount(),
	}
}

// sourceHash identifies the tree being measured when it is not a git
// checkout: SHA-256 over the path and contents of every Go source and
// module file, skipping hidden directories.
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(data))
		_, _ = h.Write(data) // hash writes cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
