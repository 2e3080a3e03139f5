// Command birchbench is the repo's performance-trajectory harness: it runs
// fixed-seed Phase 1 and full-pipeline workloads and writes the measured
// per-point costs to BENCH_phase1.json and BENCH_pipeline.json in the repo
// root, so every PR leaves behind a comparable record of where the hot
// path stands.
//
// Phase 1 workloads stream deterministic Gaussian-blob points through
// Engine.Add (the paper's single-scan tree build, Section 4.2) and report
// ns/point, allocs/point and B/point from runtime.MemStats deltas plus the
// resulting subcluster counts. Pipeline workloads time sequential Run
// against RunParallel on a DS1-style base workload (Section 6.2) and
// report the end-to-end speedup at the configured worker count.
//
// All workloads are seeded; the JSON records Go version, GOMAXPROCS, CPU
// count and the git commit so trajectory comparisons across PRs are
// apples-to-apples. Pass -baseline <dir> holding a previous run's files to
// embed them and a per-workload comparison into the new output.
//
// After writing, the harness re-reads both files and verifies that they
// parse and contain every expected workload key; a failure exits non-zero.
// CI's bench-smoke job relies on this self-check (it runs -quick, which
// shrinks every workload ~10x but keeps the same keys).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"birch/internal/core"
	"birch/internal/dataset"
	"birch/internal/vec"
)

// Meta pins the execution environment so numbers from different PRs can be
// compared honestly.
type Meta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
	Quick      bool   `json:"quick"`
	Generated  string `json:"generated_by"`
}

// Workload is one measured configuration.
type Workload struct {
	Dim    int   `json:"dim"`
	Points int   `json:"points"`
	Seed   int64 `json:"seed"`

	// The per-point cost columns are omitempty because not every report
	// measures them: the concurrent-ingest workloads (BENCH_stream.json)
	// report throughput and latency percentiles instead, and previously
	// serialized these as dead `"ns_per_point": 0` entries.
	NsPerPoint     float64 `json:"ns_per_point,omitempty"`
	AllocsPerPoint float64 `json:"allocs_per_point,omitempty"`
	BytesPerPoint  float64 `json:"bytes_per_point,omitempty"`

	// LeafEntries is the subcluster count Phase 1 handed onward; Rebuilds
	// counts threshold escalations. Both double as determinism probes: they
	// must not drift between runs of the same seed.
	LeafEntries int `json:"leaf_entries,omitempty"`
	Rebuilds    int `json:"rebuilds,omitempty"`

	// Workers and SpeedupVsSeq are set only on parallel pipeline workloads.
	Workers      int     `json:"workers,omitempty"`
	SpeedupVsSeq float64 `json:"speedup_vs_seq,omitempty"`
	Clusters     int     `json:"clusters,omitempty"`

	// Concurrent-ingest (BENCH_stream.json) fields: wall-clock ingest
	// throughput across all writers, sampled single-insert latency
	// percentiles, concurrent classify readers served during ingest, and
	// the stream engine's throughput ratio over the mutex-wrapped
	// baseline at the same writer count.
	Readers        int     `json:"readers,omitempty"`
	PointsPerSec   float64 `json:"points_per_sec,omitempty"`
	P50InsertNs    float64 `json:"p50_insert_ns,omitempty"`
	P99InsertNs    float64 `json:"p99_insert_ns,omitempty"`
	SpeedupVsMutex float64 `json:"speedup_vs_mutex,omitempty"`

	// Descent-scan (BENCH_scan.json) fields: Metric names the distance
	// metric the tree descends under; the standard ns/allocs/bytes
	// columns hold the fused block-scan numbers; EntryScanNsPerPoint is
	// the per-entry kernel loop on the identical workload, and
	// FusedVsEntryScan is fused/entries ns (< 1 means the fused scan is
	// faster). Both modes build bit-identical trees, so the ratio is pure
	// scan cost.
	Metric              string  `json:"metric,omitempty"`
	EntryScanNsPerPoint float64 `json:"entry_scan_ns_per_point,omitempty"`
	FusedVsEntryScan    float64 `json:"fused_vs_entry_scan,omitempty"`

	// Durability (BENCH_wal.json) fields: DurableVsOff is the durable
	// row's throughput over the wal_off baseline at the same writer count
	// (< 1 means the WAL costs throughput), WALBytesPerPoint the log bytes
	// written per ingested point (CRC framing included), and
	// ReplayNsPerPoint the warm restart's per-point WAL replay cost.
	DurableVsOff     float64 `json:"durable_vs_off,omitempty"`
	WALBytesPerPoint float64 `json:"wal_bytes_per_point,omitempty"`
	ReplayNsPerPoint float64 `json:"replay_ns_per_point,omitempty"`

	// Sparse fast-path (BENCH_sparse.json) fields: NNZ is the nonzeros
	// per document; the standard ns column holds the sparse-path numbers
	// (gather scan, or InsertSparse for the tree pairs), DenseNsPerPoint
	// the dense fused path on the identical workload, and SparseVsDense
	// their ratio (< 1 means the sparse path is faster — both paths are
	// bit-identical, so the ratio is pure kernel cost). CrossoverDensity
	// is set only on the density-sweep workloads: the measured nnz/d where
	// the gather scan stops beating the fused dense scan, the constant
	// behind cf.SparseGatherMaxDensity.
	NNZ              int     `json:"nnz,omitempty"`
	DenseNsPerPoint  float64 `json:"dense_ns_per_point,omitempty"`
	SparseVsDense    float64 `json:"sparse_vs_dense,omitempty"`
	CrossoverDensity float64 `json:"crossover_density,omitempty"`

	// Parallel-tail (BENCH_tail.json) fields. Refine workloads: K is the
	// centroid count; RefNsPerPoint is the pre-parallel reference
	// assignment, the standard ns column is the production Assigner at one
	// worker, ParNsPerPoint the Assigner at the configured worker count,
	// and SpeedupVsRef = ref/par (> 1 means the production path is
	// faster). Classify workloads: per-query ns under each Finder mode
	// plus the batch path; the fused-vs-kd columns across K locate the
	// kmeans.FusedKDThreshold crossover.
	K               int     `json:"k,omitempty"`
	RefNsPerPoint   float64 `json:"ref_ns_per_point,omitempty"`
	ParNsPerPoint   float64 `json:"par_ns_per_point,omitempty"`
	SpeedupVsRef    float64 `json:"speedup_vs_ref,omitempty"`
	BruteNsPerQuery float64 `json:"brute_ns_per_query,omitempty"`
	FusedNsPerQuery float64 `json:"fused_ns_per_query,omitempty"`
	KDNsPerQuery    float64 `json:"kd_ns_per_query,omitempty"`
	BatchNsPerQuery float64 `json:"batch_ns_per_query,omitempty"`
}

// Comparison is the per-workload baseline-vs-current delta.
type Comparison struct {
	NsRatio     float64 `json:"ns_ratio"`     // current / baseline, < 1 is faster
	AllocsRatio float64 `json:"allocs_ratio"` // current / baseline, < 1 is leaner
	BytesRatio  float64 `json:"bytes_ratio"`
}

// Report is the schema of each BENCH_*.json file.
type Report struct {
	Meta       Meta                  `json:"meta"`
	Workloads  map[string]Workload   `json:"workloads"`
	Baseline   map[string]Workload   `json:"baseline,omitempty"`
	Comparison map[string]Comparison `json:"comparison,omitempty"`
}

const (
	phase1File   = "BENCH_phase1.json"
	pipelineFile = "BENCH_pipeline.json"
	// streamFile (BENCH_stream.json) is declared in stream.go and
	// scanFile (BENCH_scan.json) in descent.go.
)

func main() {
	quick := flag.Bool("quick", false, "shrink workloads ~10x (CI smoke)")
	outDir := flag.String("out", ".", "directory for BENCH_*.json")
	baseDir := flag.String("baseline", "", "directory holding a previous run's BENCH_*.json to compare against")
	reps := flag.Int("reps", 3, "repetitions per workload (best-of)")
	workers := flag.Int("workers", 8, "worker count for the parallel pipeline workload")
	only := flag.String("only", "all", `run a subset: "all", "scan" (descent-scan workloads only), "sparse" (sparse fast-path workloads only), "tail" (parallel-tail workloads only), "wal" (durability workloads only), "stream" (concurrent-ingest workloads only) or "serve" (network serving workloads only)`)
	flag.Parse()
	switch *only {
	case "all", "scan", "sparse", "tail", "wal", "stream", "serve":
	default:
		fatal(fmt.Errorf("unknown -only value %q (want all, scan, sparse, tail, wal, stream or serve)", *only))
	}

	meta := Meta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     gitCommit(),
		Quick:      *quick,
		Generated:  "cmd/birchbench",
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	if *only == "sparse" {
		sparse := runSparseWorkloads(*quick, *reps)
		if err := writeReport(filepath.Join(*outDir, sparseFile), meta, sparse, *baseDir); err != nil {
			fatal(err)
		}
		if err := verifySparse(*outDir, *quick); err != nil {
			fatal(err)
		}
		fmt.Printf("birchbench OK: %d sparse workloads -> %s\n", len(sparse), *outDir)
		return
	}

	if *only == "wal" {
		wal := runWALWorkloads(*quick, *reps)
		if err := writeReport(filepath.Join(*outDir, walFile), meta, wal, *baseDir); err != nil {
			fatal(err)
		}
		if err := verifyWAL(*outDir); err != nil {
			fatal(err)
		}
		fmt.Printf("birchbench OK: %d wal workloads -> %s\n", len(wal), *outDir)
		return
	}

	if *only == "stream" {
		streamed := runStreamWorkloads(*quick, *reps)
		if err := writeReport(filepath.Join(*outDir, streamFile), meta, streamed, *baseDir); err != nil {
			fatal(err)
		}
		if err := verifyStream(*outDir); err != nil {
			fatal(err)
		}
		fmt.Printf("birchbench OK: %d stream workloads -> %s\n", len(streamed), *outDir)
		return
	}

	if *only == "serve" {
		serve := runServeWorkloads(*quick)
		if err := writeServeReport(filepath.Join(*outDir, serveFile), meta, serve); err != nil {
			fatal(err)
		}
		if err := verifyServe(*outDir, *quick); err != nil {
			fatal(err)
		}
		fmt.Printf("birchbench OK: %d serve workloads -> %s\n", len(serve), *outDir)
		return
	}

	if *only == "tail" {
		tail := runTailWorkloads(*quick, *reps, *workers)
		if err := writeReport(filepath.Join(*outDir, tailFile), meta, tail, *baseDir); err != nil {
			fatal(err)
		}
		if err := verifyTail(*outDir, *quick); err != nil {
			fatal(err)
		}
		fmt.Printf("birchbench OK: %d tail workloads -> %s\n", len(tail), *outDir)
		return
	}

	scan := runDescentWorkloads(*quick, *reps)
	if err := writeReport(filepath.Join(*outDir, scanFile), meta, scan, *baseDir); err != nil {
		fatal(err)
	}
	if *only == "scan" {
		if err := verifyScan(*outDir, *quick); err != nil {
			fatal(err)
		}
		fmt.Printf("birchbench OK: %d scan workloads -> %s\n", len(scan), *outDir)
		return
	}

	phase1 := runPhase1Workloads(*quick, *reps)
	pipeline := runPipelineWorkloads(*quick, *reps, *workers)
	streamed := runStreamWorkloads(*quick, *reps)
	tail := runTailWorkloads(*quick, *reps, *workers)
	wal := runWALWorkloads(*quick, *reps)
	serve := runServeWorkloads(*quick)
	sparse := runSparseWorkloads(*quick, *reps)

	if err := writeReport(filepath.Join(*outDir, phase1File), meta, phase1, *baseDir); err != nil {
		fatal(err)
	}
	if err := writeReport(filepath.Join(*outDir, pipelineFile), meta, pipeline, *baseDir); err != nil {
		fatal(err)
	}
	if err := writeReport(filepath.Join(*outDir, streamFile), meta, streamed, *baseDir); err != nil {
		fatal(err)
	}
	if err := writeReport(filepath.Join(*outDir, tailFile), meta, tail, *baseDir); err != nil {
		fatal(err)
	}
	if err := writeReport(filepath.Join(*outDir, walFile), meta, wal, *baseDir); err != nil {
		fatal(err)
	}
	if err := writeServeReport(filepath.Join(*outDir, serveFile), meta, serve); err != nil {
		fatal(err)
	}
	if err := writeReport(filepath.Join(*outDir, sparseFile), meta, sparse, *baseDir); err != nil {
		fatal(err)
	}
	if err := verify(*outDir, *quick); err != nil {
		fatal(err)
	}
	fmt.Printf("birchbench OK: %d phase1 + %d pipeline + %d stream + %d scan + %d sparse + %d tail + %d wal + %d serve workloads -> %s\n",
		len(phase1), len(pipeline), len(streamed), len(scan), len(sparse), len(tail), len(wal), len(serve), *outDir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "birchbench:", err)
	os.Exit(1)
}

// phase1Specs returns the insert workloads: varying dimensionality under a
// roomy budget (absorb-dominated steady state) plus the paper's default
// 80 KB budget (rebuild pressure).
type phase1Spec struct {
	Name   string
	Dim    int
	N      int
	Memory int
	// Threshold is T0. The roomy workloads set it above the expected
	// within-cluster diameter so the absorb path (the steady state of a
	// converged tree) dominates; the 80 KB workload keeps the paper's
	// T0 = 0 and measures the rebuild-escalation regime instead.
	Threshold float64
	Seed      int64
}

func phase1Specs(quick bool) []phase1Spec {
	div := 1
	if quick {
		div = 10
	}
	return []phase1Spec{
		{"insert_d2_n50k", 2, 50000 / div, 4 << 20, 4, 101},
		{"insert_d8_n20k", 8, 20000 / div, 4 << 20, 8, 102},
		{"insert_d32_n10k", 32, 10000 / div, 8 << 20, 16, 103},
		{"insert_d2_n50k_mem80k", 2, 50000 / div, 80 << 10, 0, 104},
	}
}

func runPhase1Workloads(quick bool, reps int) map[string]Workload {
	out := make(map[string]Workload)
	for _, spec := range phase1Specs(quick) {
		pts := blobs(spec.Seed, spec.Dim, 16, spec.N)
		cfg := core.DefaultConfig(spec.Dim, 16)
		cfg.Memory = spec.Memory
		cfg.InitialThreshold = spec.Threshold
		cfg.Refine = false
		cfg.Phase2 = false

		w := Workload{Dim: spec.Dim, Points: len(pts), Seed: spec.Seed}
		best := sample{ns: math.Inf(1), allocs: math.Inf(1), bytes: math.Inf(1)}
		for r := 0; r < reps; r++ {
			var stats core.Phase1Stats
			s := measure(len(pts), func() {
				eng, err := core.NewEngine(cfg)
				if err != nil {
					fatal(err)
				}
				eng.SetExpectedN(int64(len(pts)))
				for _, p := range pts {
					if err := eng.Add(p); err != nil {
						fatal(err)
					}
				}
				stats = eng.FinishPhase1()
			})
			best = best.min(s)
			w.LeafEntries = stats.LeafEntries
			w.Rebuilds = stats.Rebuilds
		}
		w.NsPerPoint = best.ns
		w.AllocsPerPoint = best.allocs
		w.BytesPerPoint = best.bytes
		out[spec.Name] = w
	}
	return out
}

func runPipelineWorkloads(quick bool, reps, workers int) map[string]Workload {
	k, perCluster := 100, 1000
	if quick {
		k, perCluster = 25, 200
	}
	const seed = 201
	ds, err := dataset.Generate(dataset.Params{
		Pattern: dataset.Grid,
		K:       k,
		NLow:    perCluster, NHigh: perCluster,
		RLow: math.Sqrt2, RHigh: math.Sqrt2,
		KG:    4,
		Order: dataset.Randomized,
		Seed:  seed,
	})
	if err != nil {
		fatal(err)
	}
	cfg := core.DefaultConfig(2, k)

	out := make(map[string]Workload)

	seq := Workload{Dim: 2, Points: ds.N(), Seed: seed}
	bestSeq := sample{ns: math.Inf(1), allocs: math.Inf(1), bytes: math.Inf(1)}
	for r := 0; r < reps; r++ {
		var res *core.Result
		s := measure(ds.N(), func() {
			var err error
			res, err = core.Run(ds.Points, cfg)
			if err != nil {
				fatal(err)
			}
		})
		bestSeq = bestSeq.min(s)
		seq.LeafEntries = res.Stats.Phase1.LeafEntries
		seq.Rebuilds = res.Stats.Phase1.Rebuilds
		seq.Clusters = len(res.Clusters)
	}
	seq.NsPerPoint = bestSeq.ns
	seq.AllocsPerPoint = bestSeq.allocs
	seq.BytesPerPoint = bestSeq.bytes
	out["pipeline_seq_ds1"] = seq

	par := Workload{Dim: 2, Points: ds.N(), Seed: seed, Workers: workers}
	bestPar := sample{ns: math.Inf(1), allocs: math.Inf(1), bytes: math.Inf(1)}
	for r := 0; r < reps; r++ {
		var res *core.Result
		s := measure(ds.N(), func() {
			var err error
			res, err = core.RunParallel(ds.Points, cfg, workers)
			if err != nil {
				fatal(err)
			}
		})
		bestPar = bestPar.min(s)
		par.LeafEntries = res.Stats.Phase1.LeafEntries
		par.Rebuilds = res.Stats.Phase1.Rebuilds
		par.Clusters = len(res.Clusters)
	}
	par.NsPerPoint = bestPar.ns
	par.AllocsPerPoint = bestPar.allocs
	par.BytesPerPoint = bestPar.bytes
	if bestPar.ns > 0 {
		par.SpeedupVsSeq = bestSeq.ns / bestPar.ns
	}
	out[fmt.Sprintf("pipeline_par%d_ds1", workers)] = par
	return out
}

// sample is one timed run, normalized per point.
type sample struct{ ns, allocs, bytes float64 }

func (s sample) min(o sample) sample {
	if o.ns < s.ns {
		s.ns = o.ns
	}
	if o.allocs < s.allocs {
		s.allocs = o.allocs
	}
	if o.bytes < s.bytes {
		s.bytes = o.bytes
	}
	return s
}

// measure times f and attributes its heap traffic per point. A GC fence
// before the run keeps leftover garbage from a previous workload out of
// the deltas.
func measure(points int, f func()) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(points)
	return sample{
		ns:     float64(elapsed.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}
}

// blobs generates n points from k well-separated d-dimensional Gaussian
// clusters, deterministically from seed. Centers sit on a scaled integer
// lattice so separation holds in any dimension.
func blobs(seed int64, dim, k, n int) []vec.Vector {
	r := rand.New(rand.NewSource(seed))
	centers := make([]vec.Vector, k)
	for i := range centers {
		c := vec.New(dim)
		for d := 0; d < dim; d++ {
			c[d] = float64((i*(d+7))%k) * 25
		}
		centers[i] = c
	}
	pts := make([]vec.Vector, n)
	for i := range pts {
		c := centers[i%k]
		p := vec.New(dim)
		for d := 0; d < dim; d++ {
			p[d] = c[d] + r.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// gitCommit best-effort resolves the current commit for the meta block.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeReport attaches any baseline, computes comparisons, and writes the
// file with a trailing newline so it diffs cleanly.
func writeReport(path string, meta Meta, workloads map[string]Workload, baseDir string) error {
	rep := Report{Meta: meta, Workloads: workloads}
	if baseDir != "" {
		base, err := readReport(filepath.Join(baseDir, filepath.Base(path)))
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		rep.Baseline = base.Workloads
		rep.Comparison = make(map[string]Comparison)
		for name, cur := range workloads {
			b, ok := base.Workloads[name]
			if !ok {
				continue
			}
			rep.Comparison[name] = Comparison{
				NsRatio:     ratio(cur.NsPerPoint, b.NsPerPoint),
				AllocsRatio: ratio(cur.AllocsPerPoint, b.AllocsPerPoint),
				BytesRatio:  ratio(cur.BytesPerPoint, b.BytesPerPoint),
			}
		}
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ratio(cur, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return cur / base
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verifyScan re-reads the scan report and checks every descent workload
// is present with sane measurements on both scan modes.
func verifyScan(dir string, quick bool) error {
	rep, err := readReport(filepath.Join(dir, scanFile))
	if err != nil {
		return err
	}
	for _, spec := range descentSpecs(quick) {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("%s: missing workload %q", scanFile, spec.Name)
		}
		if w.NsPerPoint <= 0 || w.EntryScanNsPerPoint <= 0 || w.FusedVsEntryScan <= 0 {
			return fmt.Errorf("%s: workload %q has degenerate measurements", scanFile, spec.Name)
		}
	}
	if rep.Meta.GoVersion == "" {
		return fmt.Errorf("%s: missing meta.go_version", scanFile)
	}
	return nil
}

// verifyStream re-reads the concurrent-ingest report and checks every
// workload carries live throughput and latency measurements.
func verifyStream(dir string) error {
	rep, err := readReport(filepath.Join(dir, streamFile))
	if err != nil {
		return err
	}
	for _, spec := range streamSpecs() {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("%s: missing workload %q", streamFile, spec.Name)
		}
		if w.PointsPerSec <= 0 || w.P99InsertNs <= 0 {
			return fmt.Errorf("%s: workload %q has degenerate measurements", streamFile, spec.Name)
		}
	}
	if rep.Meta.GoVersion == "" {
		return fmt.Errorf("%s: missing meta.go_version", streamFile)
	}
	return nil
}

// verify re-reads the emitted files and checks every expected workload
// key is present with sane fields — the bench-smoke contract.
func verify(dir string, quick bool) error {
	if err := verifyScan(dir, quick); err != nil {
		return err
	}
	if err := verifyServe(dir, quick); err != nil {
		return err
	}
	if err := verifySparse(dir, quick); err != nil {
		return err
	}
	if err := verifyTail(dir, quick); err != nil {
		return err
	}
	if err := verifyWAL(dir); err != nil {
		return err
	}
	wantPhase1 := make([]string, 0, 4)
	for _, spec := range phase1Specs(quick) {
		wantPhase1 = append(wantPhase1, spec.Name)
	}
	wantStream := make([]string, 0, 4)
	for _, spec := range streamSpecs() {
		wantStream = append(wantStream, spec.Name)
	}
	checks := []struct {
		file string
		want []string
	}{
		{phase1File, wantPhase1},
		{pipelineFile, []string{"pipeline_seq_ds1"}},
		{streamFile, wantStream},
	}
	for _, c := range checks {
		rep, err := readReport(filepath.Join(dir, c.file))
		if err != nil {
			return err
		}
		for _, key := range c.want {
			w, ok := rep.Workloads[key]
			if !ok {
				return fmt.Errorf("%s: missing workload %q", c.file, key)
			}
			if c.file == streamFile {
				if w.PointsPerSec <= 0 || w.P99InsertNs <= 0 {
					return fmt.Errorf("%s: workload %q has degenerate measurements", c.file, key)
				}
				continue
			}
			if w.NsPerPoint <= 0 || w.Points <= 0 {
				return fmt.Errorf("%s: workload %q has degenerate measurements", c.file, key)
			}
		}
		if rep.Meta.GoVersion == "" {
			return fmt.Errorf("%s: missing meta.go_version", c.file)
		}
	}
	// The parallel workload's key embeds the worker count; require at
	// least one regardless of the -workers value used.
	rep, err := readReport(filepath.Join(dir, pipelineFile))
	if err != nil {
		return err
	}
	for key := range rep.Workloads {
		if strings.HasPrefix(key, "pipeline_par") {
			return nil
		}
	}
	return fmt.Errorf("%s: missing pipeline_par* workload", pipelineFile)
}
