package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"birch/internal/faultfs"
	"birch/internal/pager"
	"birch/internal/stream"
	"birch/internal/vec"
)

// This file is the durability benchmark behind BENCH_wal.json: what the
// checkpoint + write-ahead-log layer (DESIGN.md §14) costs at ingest
// time, and what a warm restart costs at recovery time.
//
// Three ingest rows run the identical offered load (same points, same
// writer/shard count) and differ only in the durability setting:
//
//   - wal_off:    the volatile engine — the pre-durability baseline.
//   - wal_rotate: SyncEvery=0 — records reach the OS on every append but
//     fsync happens only at segment rotation, Checkpoint and Close. This
//     is the bounded-loss production setting.
//   - wal_fsync1: SyncEvery=1 — every appended record is fsynced before
//     the shard applies it. The full-durability ceiling; on a real disk
//     this row is dominated by fsync latency, which is the point.
//
// The durable rows report their throughput ratio against wal_off
// (durable_vs_off, < 1 means the WAL costs throughput) and the WAL bytes
// written per ingested point (framing overhead included).
//
// wal_replay measures the recovery path with the ingest cost factored
// out: a fully-synced store is crashed (handles invalidated, nothing
// checkpointed since open), and the row times Open's WAL replay back
// into shard trees, reporting replayed points/sec.
//
// The ingest rows run on a real directory (pager.DirFS) so fsync hits an
// actual file system; the replay row runs on the in-memory fault disk so
// it times replay itself, not page-cache luck.

const walFile = "BENCH_wal.json"

type walSpec struct {
	Name      string
	Durable   bool
	SyncEvery int
}

func walSpecs() []walSpec {
	return []walSpec{
		{"wal_off_w4", false, 0},
		{"wal_rotate_w4", true, 0},
		{"wal_fsync1_w4", true, 1},
	}
}

const (
	walBenchWriters = 4
	walBenchPoints  = 100000
	walSegmentBytes = 1 << 20
)

func runWALWorkloads(quick bool, reps int) map[string]Workload {
	n := walBenchPoints
	if quick {
		n /= 10
	}
	const seed = 401
	pts := blobs(seed, streamBenchDim, streamBenchK, n)

	out := make(map[string]Workload)
	for _, spec := range walSpecs() {
		w := Workload{Dim: streamBenchDim, Points: n, Seed: seed, Workers: walBenchWriters}
		var bestPPS, walBytes float64
		for r := 0; r < reps; r++ {
			pps, wb := runWALIngest(pts, spec)
			if pps > bestPPS {
				bestPPS, walBytes = pps, wb
			}
		}
		w.PointsPerSec = bestPPS
		if spec.Durable {
			w.WALBytesPerPoint = walBytes / float64(n)
		}
		out[spec.Name] = w
	}
	if off := out["wal_off_w4"]; off.PointsPerSec > 0 {
		for _, name := range []string{"wal_rotate_w4", "wal_fsync1_w4"} {
			w := out[name]
			w.DurableVsOff = w.PointsPerSec / off.PointsPerSec
			out[name] = w
		}
	}

	// Recovery cost: replay a fully-synced WAL into fresh shard trees.
	rw := Workload{Dim: streamBenchDim, Points: n, Seed: seed, Workers: walBenchWriters}
	for r := 0; r < reps; r++ {
		ns, pps := runWALReplay(pts)
		if pps > rw.PointsPerSec {
			rw.PointsPerSec = pps
			rw.ReplayNsPerPoint = ns
		}
	}
	out["wal_replay"] = rw
	return out
}

// walIngest drives the streaming engine to a full Flush under the given
// durability setting and returns wall-clock points/sec plus the WAL
// bytes on disk at the timer stop (before Close's final checkpoint
// truncates the log).
func runWALIngest(pts []vec.Vector, spec walSpec) (pps, walBytes float64) {
	var dur *stream.DurableOptions
	var fs pager.FS
	if spec.Durable {
		dir, err := os.MkdirTemp("", "birchbench-wal-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		fs = pager.DirFS(dir)
		dur = &stream.DurableOptions{FS: fs, SegmentBytes: walSegmentBytes, SyncEvery: spec.SyncEvery}
	}
	eng, _, err := stream.Open(streamBenchConfig(), stream.Options{Shards: walBenchWriters}, dur)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < walBenchWriters; w++ {
		lo := len(pts) * w / walBenchWriters
		hi := len(pts) * (w + 1) / walBenchWriters
		wg.Add(1)
		go func(slice []vec.Vector) {
			defer wg.Done()
			for _, p := range slice {
				if err := eng.Insert(ctx, p); err != nil {
					fatal(err)
				}
			}
		}(pts[lo:hi])
	}
	wg.Wait()
	if err := eng.Flush(ctx); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if spec.Durable {
		walBytes = float64(walBytesOn(fs))
	}
	if err := eng.Close(); err != nil {
		fatal(err)
	}
	return float64(len(pts)) / elapsed.Seconds(), walBytes
}

// runWALReplay builds a fully-synced store whose WAL holds the entire
// stream, crashes it, and times the warm restart's replay. Each shard's
// WAL stays under walSegmentBytes, the smallest automatic checkpoint
// interval, so no shard checkpoints before the crash.
func runWALReplay(pts []vec.Vector) (nsPerPoint, pps float64) {
	cfg := streamBenchConfig()
	disk := faultfs.NewDisk()
	dur := &stream.DurableOptions{FS: disk, SegmentBytes: walSegmentBytes, SyncEvery: 1}
	eng, _, err := stream.Open(cfg, stream.Options{Shards: walBenchWriters}, dur)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	const batch = 256
	for lo := 0; lo < len(pts); lo += batch {
		hi := lo + batch
		if hi > len(pts) {
			hi = len(pts)
		}
		if err := eng.InsertBatch(ctx, pts[lo:hi]); err != nil {
			fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		fatal(err)
	}
	// Crash instead of Close: Close would checkpoint and truncate the WAL,
	// leaving nothing to replay. Every record is already durable.
	disk.Crash()
	_ = eng.Close()

	start := time.Now()
	eng2, rec, err := stream.Open(cfg, stream.Options{}, dur)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if rec.ReplayedPoints != int64(len(pts)) {
		fatal(fmt.Errorf("wal bench: replayed %d of %d points", rec.ReplayedPoints, len(pts)))
	}
	if err := eng2.Close(); err != nil {
		fatal(err)
	}
	n := float64(len(pts))
	return float64(elapsed.Nanoseconds()) / n, n / elapsed.Seconds()
}

// walBytesOn sums the sizes of all WAL segment files on fs.
func walBytesOn(fs pager.FS) int64 {
	names, err := fs.List()
	if err != nil {
		fatal(err)
	}
	var total int64
	for _, name := range names {
		if !strings.Contains(name, ".wal.") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		total += size
	}
	return total
}

// verifyWAL re-reads the WAL report and checks every row carries sane
// measurements — the bench-wal smoke contract.
func verifyWAL(dir string) error {
	rep, err := readReport(filepath.Join(dir, walFile))
	if err != nil {
		return err
	}
	for _, spec := range walSpecs() {
		w, ok := rep.Workloads[spec.Name]
		if !ok {
			return fmt.Errorf("%s: missing workload %q", walFile, spec.Name)
		}
		if w.PointsPerSec <= 0 {
			return fmt.Errorf("%s: workload %q has degenerate measurements", walFile, spec.Name)
		}
		if spec.Durable && (w.DurableVsOff <= 0 || w.WALBytesPerPoint <= 0) {
			return fmt.Errorf("%s: workload %q missing durability columns", walFile, spec.Name)
		}
	}
	w, ok := rep.Workloads["wal_replay"]
	if !ok {
		return fmt.Errorf("%s: missing workload %q", walFile, "wal_replay")
	}
	if w.PointsPerSec <= 0 || w.ReplayNsPerPoint <= 0 {
		return fmt.Errorf("%s: workload wal_replay has degenerate measurements", walFile)
	}
	if rep.Meta.GoVersion == "" {
		return fmt.Errorf("%s: missing meta.go_version", walFile)
	}
	return nil
}
