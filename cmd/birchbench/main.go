// Command birchbench writes the BENCH_*.json reports at the repo root.
// Each report backs a constant or a comparison that nothing else in the
// repository measures:
//
//   - scan (BENCH_scan.json): the fused four-lane descent scan against
//     the per-entry kernel loop on converged trees;
//   - stream (BENCH_stream.json): the snapshot-serving stream engine
//     against one engine behind a mutex, under the same ingest and
//     classify load;
//   - sparse (BENCH_sparse.json): the sparse gather kernels against the
//     dense fused scan, and the density sweeps behind
//     cf.SparseGatherMaxDensity;
//   - tail (BENCH_tail.json): the Phase 4 Assigner against its reference
//     and the classify finders behind kmeans.FusedKDThreshold;
//   - wal (BENCH_wal.json): WAL ingest overhead and warm-restart replay.
//
// End-to-end numbers (birch.Cluster on the paper's datasets, a 1M-point
// scale-up, durable serving) come from perfbench, not from here.
//
// Every workload is seeded, and each report records the Go version,
// GOMAXPROCS, CPU count and git commit. After writing a report the
// harness re-reads it and checks that every expected workload key is
// present with sane measurements; a failure exits non-zero. -quick
// shrinks every workload about 10x but keeps the same keys, which is
// what the non-gating CI smoke job runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

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
	// report throughput and latency percentiles instead.
	NsPerPoint     float64 `json:"ns_per_point,omitempty"`
	AllocsPerPoint float64 `json:"allocs_per_point,omitempty"`
	BytesPerPoint  float64 `json:"bytes_per_point,omitempty"`

	// LeafEntries is the entry count of the measured tree or scan block;
	// the two modes of a tree pair must agree on it, so it doubles as a
	// determinism probe.
	LeafEntries int `json:"leaf_entries,omitempty"`

	// Workers is the writer or worker count of a concurrent workload.
	Workers int `json:"workers,omitempty"`

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

// Report is the schema of each BENCH_*.json file.
type Report struct {
	Meta      Meta                `json:"meta"`
	Workloads map[string]Workload `json:"workloads"`
}

// suite is one report: run measures its workloads, and verify checks the
// report re-read from file for every expected key.
type suite struct {
	name   string
	file   string
	run    func(quick bool, reps, workers int) map[string]Workload
	verify func(rep *Report, quick bool) error
}

// suites lists every report the harness writes, in the order -only all
// runs them.
var suites = []suite{
	{"scan", scanFile, runDescentWorkloads, verifyScan},
	{"stream", streamFile, runStreamWorkloads, verifyStream},
	{"tail", tailFile, runTailWorkloads, verifyTail},
	{"wal", walFile, runWALWorkloads, verifyWAL},
	{"sparse", sparseFile, runSparseWorkloads, verifySparse},
}

func main() {
	quick := flag.Bool("quick", false, "shrink workloads ~10x (CI smoke)")
	outDir := flag.String("out", ".", "directory for BENCH_*.json")
	reps := flag.Int("reps", 3, "repetitions per workload (best-of)")
	workers := flag.Int("workers", 8, "worker count for the parallel-tail workloads")
	only := flag.String("only", "all", `run one suite: "all", "scan", "stream", "tail", "wal" or "sparse"`)
	flag.Parse()

	run, err := selectSuites(*only)
	if err != nil {
		fatal(err)
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
	for _, s := range run {
		workloads := s.run(*quick, *reps, *workers)
		path := filepath.Join(*outDir, s.file)
		if err := writeReport(path, Report{Meta: meta, Workloads: workloads}); err != nil {
			fatal(err)
		}
		if err := verifyReport(path, s, *quick); err != nil {
			fatal(err)
		}
		fmt.Printf("birchbench OK: %d %s workloads -> %s\n", len(workloads), s.name, *outDir)
	}
}

// selectSuites resolves the -only value to the suites it names.
func selectSuites(only string) ([]suite, error) {
	if only == "all" {
		return suites, nil
	}
	names := make([]string, len(suites))
	for i, s := range suites {
		if s.name == only {
			return []suite{s}, nil
		}
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown -only value %q (want all, %s)", only, strings.Join(names, ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "birchbench:", err)
	os.Exit(1)
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

// writeReport writes the file with a trailing newline so it diffs
// cleanly.
func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verifyReport re-reads the report s wrote to path and checks its meta
// block and, through s.verify, its workloads.
func verifyReport(path string, s suite, quick bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Meta.GoVersion == "" {
		return fmt.Errorf("%s: missing meta.go_version", s.file)
	}
	if err := s.verify(&rep, quick); err != nil {
		return fmt.Errorf("%s: %w", s.file, err)
	}
	return nil
}

// verifyScan checks every descent workload is present with sane
// measurements on both scan modes.
func verifyScan(rep *Report, quick bool) error {
	for _, spec := range descentSpecs(quick) {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("missing workload %q", spec.Name)
		}
		if w.NsPerPoint <= 0 || w.EntryScanNsPerPoint <= 0 || w.FusedVsEntryScan <= 0 {
			return fmt.Errorf("workload %q has degenerate measurements", spec.Name)
		}
	}
	return nil
}

// verifyStream checks every concurrent-ingest workload carries live
// throughput and latency measurements.
func verifyStream(rep *Report, _ bool) error {
	for _, spec := range streamSpecs() {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("missing workload %q", spec.Name)
		}
		if w.PointsPerSec <= 0 || w.P99InsertNs <= 0 {
			return fmt.Errorf("workload %q has degenerate measurements", spec.Name)
		}
	}
	return nil
}
