package stream

// The crash-recovery battery: kill a durable streaming engine at a
// randomized byte offset into its pending (unsynced) write stream —
// tearing whatever write straddles the kill point — reopen the store,
// and prove exact CF conservation against an uncrashed reference:
//
//   - recovery always succeeds (a torn WAL tail truncates, it never
//     poisons the store);
//   - each shard recovers a whole-record PREFIX of its accepted batches,
//     never a subset with holes and never a torn half-batch;
//   - everything covered by the last Checkpoint barrier survives;
//   - the recovered shard state is BIT-IDENTICAL to a fresh engine fed
//     exactly the surviving prefix (tree dump, leaf CFs, threshold,
//     pager accounting);
//   - the snapshot served after recovery is indistinguishable from the
//     reference engine's (identical subclusters, clusters and Classify
//     answers);
//   - the warm-restarted engine continues ingesting and stays
//     bit-identical to the reference.
//
// The grid covers both CF cores; the default trial count per cell keeps
// `go test ./...` fast while `make test-crash` (BIRCH_CRASH_TRIALS=52,
// -race) runs the full ≥100-kill battery CI gates on.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/faultfs"
	"birch/internal/vec"
)

// crashTrialsPerCell returns the number of randomized kill points per
// core cell: BIRCH_CRASH_TRIALS when set (the full battery), a small
// smoke count otherwise.
func crashTrialsPerCell(t *testing.T) int {
	if v := os.Getenv("BIRCH_CRASH_TRIALS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad BIRCH_CRASH_TRIALS=%q", v)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 12
}

func TestCrashRecoveryBattery(t *testing.T) {
	trials := crashTrialsPerCell(t)
	for _, kind := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		kind := kind
		// Cells are named core/precision; float64 slabs are the only
		// precision, so the kill subtests keep their long-standing names.
		t.Run(kind.String()+"/f64", func(t *testing.T) {
			t.Parallel()
			for k := 0; k < trials; k++ {
				seed := int64(1e6)*int64(kind) + int64(k)
				t.Run(fmt.Sprintf("kill%d", k), func(t *testing.T) {
					runCrashTrial(t, kind, seed)
				})
			}
		})
	}
}

func runCrashTrial(t *testing.T, kind cf.CoreKind, seed int64) {
	const W = 3
	ctx := context.Background()
	cfg := durableCfg(kind, W)
	r := rand.New(rand.NewSource(seed))
	disk := faultfs.NewDisk()
	// SyncEvery=0 is the adversarial setting: nothing is durable except
	// what rotation, Checkpoint and Close explicitly sync, so the kill
	// point decides how much of the tail survives.
	dur := &DurableOptions{FS: disk, SegmentBytes: 2048, SyncEvery: 0}

	e1, rec, err := Open(cfg, Options{Shards: W}, dur)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recovered {
		t.Fatal("fresh store reported as recovered")
	}

	// Deterministic ingest with full per-shard batch accounting: batch b
	// round-robins to shard b%W. A Checkpoint barrier lands at a random
	// position in the stream; everything before it must survive the kill.
	nBatches := 40 + r.Intn(40)
	ckptAt := r.Intn(nBatches)
	var sent [W][][]vec.Vector
	var ckptBatches [W]int
	for b := 0; b < nBatches; b++ {
		if b == ckptAt {
			if err := e1.Checkpoint(ctx); err != nil {
				t.Fatalf("mid-run Checkpoint: %v", err)
			}
			for i := 0; i < W; i++ {
				ckptBatches[i] = len(sent[i])
			}
		}
		pts := randBatch(r, 1+r.Intn(12), cfg.Dim)
		if err := e1.InsertBatch(ctx, pts); err != nil {
			t.Fatal(err)
		}
		sent[b%W] = append(sent[b%W], cloneBatch(pts))
	}
	// Flush so every batch has been applied and WAL-appended (but NOT
	// synced): the pending write stream is now at its largest.
	if err := e1.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill -9 at a random byte of the pending stream.
	pend := disk.PendingBytes()
	kill := int64(0)
	if pend > 0 {
		kill = r.Int63n(pend + 1)
	}
	disk.CrashAt(kill)
	_ = e1.Close() // the dead process's engine; its errors are expected

	// Recovery must always succeed.
	e2, rec2, err := Open(cfg, Options{}, dur)
	if err != nil {
		t.Fatalf("recovery open (kill %d/%d pending): %v", kill, pend, err)
	}
	if !rec2.Recovered || len(e2.shards) != W {
		t.Fatalf("recovery shape wrong: recovered=%v shards=%d", rec2.Recovered, len(e2.shards))
	}

	// Exact conservation, shard by shard.
	scfg := shardConfig(cfg, W)
	refs := make([]*core.Engine, W)
	for i := 0; i < W; i++ {
		sr := rec2.Shards[i]
		if sr.Shard != i {
			t.Fatalf("recovery stats out of shard order: %+v", rec2.Shards)
		}
		got := sr.CheckpointPoints + sr.ReplayedPoints
		// The recovered mass must be a whole-batch prefix of what this
		// shard accepted — find its length.
		prefix := -1
		var cum int64
		if got == 0 {
			prefix = 0
		}
		for j, b := range sent[i] {
			cum += int64(len(b))
			if cum == got {
				prefix = j + 1
				break
			}
		}
		if prefix < 0 {
			t.Fatalf("shard %d recovered %d points — not a whole-batch prefix of its stream", i, got)
		}
		if prefix < ckptBatches[i] {
			t.Fatalf("shard %d lost checkpointed data: recovered %d batches, checkpoint covered %d",
				i, prefix, ckptBatches[i])
		}
		ref, err := core.NewEngine(scfg)
		if err != nil {
			t.Fatal(err)
		}
		feedRef(t, ref, sent[i][:prefix])
		refs[i] = ref
		shardEnginesEqualBitwise(t, fmt.Sprintf("shard %d after recovery", i), ref, e2.shards[i].eng)
		if err := e2.shards[i].eng.Tree().CheckInvariants(); err != nil {
			t.Fatalf("shard %d recovered tree invariants: %v", i, err)
		}
		// Mark the surviving prefix as the new reference stream.
		sent[i] = sent[i][:prefix]
	}

	// The serving path after recovery: snapshot must be indistinguishable
	// from one built over the uncrashed reference engines.
	if err := e2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	refReports := make([]shardReport, W)
	for i := 0; i < W; i++ {
		refReports[i] = reportShard(&shard{id: i, eng: refs[i]})
	}
	snapshotsEquivalent(t, "post-recovery snapshot", e2.buildSnapshot(refReports), e2.Snapshot())

	// Warm restart continues: more ingest must track the reference
	// bit-for-bit (round-robin restarts at shard 0 on reopen).
	for b := 0; b < 3*W; b++ {
		pts := randBatch(r, 1+r.Intn(8), cfg.Dim)
		if err := e2.InsertBatch(ctx, pts); err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := refs[b%W].Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < W; i++ {
		shardEnginesEqualBitwise(t, fmt.Sprintf("shard %d after continued ingest", i), refs[i], e2.shards[i].eng)
	}
	// The disk is healthy now, so the second generation must close clean
	// — and a third open must find a fully checkpointed store.
	if err := e2.Close(); err != nil {
		t.Fatalf("post-recovery Close: %v", err)
	}
	e3, rec3, err := Open(cfg, Options{}, dur)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if rec3.ReplayedRecords != 0 {
		t.Fatalf("clean close left %d records to replay", rec3.ReplayedRecords)
	}
	for i := 0; i < W; i++ {
		shardEnginesEqualBitwise(t, fmt.Sprintf("shard %d third generation", i), refs[i], e3.shards[i].eng)
	}
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringCheckpointKeepsOldCheckpoint kills the disk while a
// checkpoint's temp file is being written (before its sync), proving
// the tmp+sync+rename discipline: recovery lands on the previous
// checkpoint plus WAL, never on a half-written image.
func TestCrashDuringCheckpointKeepsOldCheckpoint(t *testing.T) {
	const W = 1
	ctx := context.Background()
	cfg := durableCfg(cf.CoreClassic, W)
	disk := faultfs.NewDisk()
	dur := &DurableOptions{FS: disk, SegmentBytes: 4096, SyncEvery: 1}
	e1, _, err := Open(cfg, Options{Shards: W}, dur)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	var batches [][]vec.Vector
	var total int64
	feed := func(n int) {
		for b := 0; b < n; b++ {
			pts := randBatch(r, 1+r.Intn(6), cfg.Dim)
			if err := e1.InsertBatch(ctx, pts); err != nil {
				t.Fatal(err)
			}
			batches = append(batches, cloneBatch(pts))
			total += int64(len(pts))
		}
	}
	feed(20)
	if err := e1.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	feed(20)
	if err := e1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Arm a write failure so the NEXT checkpoint's image write dies
	// partway through its temp file, then crash before any sync.
	disk.FailWriteAfter(64, nil)
	if err := e1.Checkpoint(ctx); err == nil {
		t.Fatal("checkpoint with failing writes reported success")
	}
	disk.Crash()
	_ = e1.Close()

	e2, rec, err := Open(cfg, Options{Shards: W}, dur)
	if err != nil {
		t.Fatalf("recovery after torn checkpoint: %v", err)
	}
	// SyncEvery=1 made every record durable, so the old checkpoint + WAL
	// must reconstruct the complete stream.
	if rec.Points != total {
		t.Fatalf("recovered %d points, want %d", rec.Points, total)
	}
	ref, err := core.NewEngine(shardConfig(cfg, W))
	if err != nil {
		t.Fatal(err)
	}
	feedRef(t, ref, batches)
	shardEnginesEqualBitwise(t, "after torn checkpoint", ref, e2.shards[0].eng)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}
