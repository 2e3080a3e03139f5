package stream

// The crash-recovery battery: kill a durable streaming engine at a
// randomized byte offset into its pending (unsynced) write stream —
// tearing whatever write straddles the kill point — reopen the store,
// and prove exact CF conservation against an uncrashed reference. The
// shards checkpoint on their own several times per trial, and four
// trials in five kill inside one of those automatic checkpoints instead
// of after the last batch: in its temp-file write, at its fsync, at its
// rename into place, or at a WAL segment delete.
//
//   - recovery always succeeds (a torn WAL tail truncates, it never
//     poisons the store);
//   - each shard recovers a whole-record PREFIX of its accepted batches,
//     never a subset with holes and never a torn half-batch;
//   - everything covered by the last Checkpoint barrier survives, and
//     so does everything covered by the last checkpoint installed before
//     the kill, which is the checkpoint recovery starts from;
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
	"errors"
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
				site := killSite(k % int(numKillSites))
				t.Run(fmt.Sprintf("kill%d", k), func(t *testing.T) {
					runCrashTrial(t, kind, seed, site)
				})
			}
		})
	}
}

// killSite is where a crash trial kills the engine.
type killSite int

const (
	killTail     killSite = iota // a random byte of the unsynced tail, after the last batch
	killTmpWrite                 // inside an automatic checkpoint's temp-file write
	killTmpSync                  // at that temp file's fsync
	killRename                   // at its rename into place
	killTruncate                 // at the delete of a WAL segment it covers
	numKillSites
)

func (k killSite) String() string {
	return [...]string{"tail", "tmp write", "tmp fsync", "rename", "truncate"}[k]
}

var errKilled = errors.New("stream test: process killed")

// killer is a hookFS hook that kills the process at a kill site once
// armed: the disk crashes, keeping a random prefix of its unsynced
// writes, and every later operation fails, as after a kill -9. Until
// then it records the WAL sequence number each shard's installed
// checkpoint covers.
type killer struct {
	disk      *faultfs.Disk
	r         *rand.Rand
	site      killSite
	after     bool // kill just after the site's operation, not just before
	armed     bool
	dead      bool
	installed []uint64 // per shard
	err       error    // a failure inside the hook, reported by the test
}

func (k *killer) hook(ev fsEvent) error {
	if k.dead {
		return errKilled
	}
	if ev.after && ev.op == "rename" && isCkptTmp(ev.name) {
		var i int
		if _, err := fmt.Sscanf(ev.name, "shard-%d.ckpt.tmp", &i); err != nil {
			k.err = err
		} else if seq, err := readCkptSeq(k.disk, i); err != nil {
			k.err = err
		} else {
			k.installed[i] = seq
		}
	}
	if !k.armed || !k.at(ev) {
		return nil
	}
	pend := k.disk.PendingBytes()
	cut := k.r.Int63n(pend + 1)
	if k.site == killTmpWrite {
		// Tear the write just made: keep what came before it and a
		// random part of it.
		cut = pend - int64(ev.n) + k.r.Int63n(int64(ev.n)+1)
	}
	k.disk.CrashAt(cut)
	k.dead = true
	return errKilled
}

// at reports whether ev is where the armed kill lands.
func (k *killer) at(ev fsEvent) bool {
	switch k.site {
	case killTmpWrite:
		return ev.after && ev.op == "write" && isCkptTmp(ev.name)
	case killTmpSync:
		return ev.after == k.after && ev.op == "sync" && isCkptTmp(ev.name)
	case killRename:
		return ev.after == k.after && ev.op == "rename" && isCkptTmp(ev.name)
	case killTruncate:
		return ev.after == k.after && ev.op == "remove" && isWALSeg(ev.name)
	}
	return false
}

// requireAutoCheckpoints flushes e and fails unless every shard has
// completed at least one automatic checkpoint besides the one explicit
// barrier the trial has run.
func requireAutoCheckpoints(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, st := range e.Stats().Shards {
		if st.Checkpoints < 2 {
			t.Fatalf("shard %d completed %d checkpoints, want the barrier plus at least one automatic one",
				st.Shard, st.Checkpoints)
		}
	}
}

func runCrashTrial(t *testing.T, kind cf.CoreKind, seed int64, site killSite) {
	const W = 3
	ctx := context.Background()
	cfg := durableCfg(kind, W)
	r := rand.New(rand.NewSource(seed))
	disk := faultfs.NewDisk()
	// A checkpoint reaches its temp file in one buffered write per 4 KiB
	// (one write for this battery's trees), so a tmp-write kill tears the
	// first such write after arming at a random byte.
	kill := &killer{disk: disk, r: rand.New(rand.NewSource(^seed)), site: site,
		after: seed%2 == 1, installed: make([]uint64, W)}
	hfs := &hookFS{disk: disk, hook: kill.hook}
	// SyncEvery=0 is the adversarial setting: nothing is durable except
	// what rotation, checkpoints and Close explicitly sync, so the kill
	// point decides how much of the tail survives. SegmentBytes=512 sets
	// the automatic checkpoint interval, max(512, 4 × the last
	// checkpoint), low enough that every shard checkpoints on its own
	// several times per trial.
	dur := &DurableOptions{FS: hfs, SegmentBytes: 512, SyncEvery: 0}

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
	// A trial that kills inside an automatic checkpoint arms the kill at
	// a random batch after the barrier; the next checkpoint on any shard
	// to reach the kill site dies there.
	nBatches := 300 + r.Intn(150)
	armAt := nBatches
	if site != killTail {
		armAt = nBatches/2 + r.Intn(nBatches/8)
	}
	ckptAt := r.Intn(armAt)
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
		if b == armAt {
			requireAutoCheckpoints(t, e1)
			hfs.mu.Lock()
			kill.armed = true
			hfs.mu.Unlock()
		}
		pts := randBatch(r, 1+r.Intn(12), cfg.Dim)
		if err := e1.InsertBatch(ctx, pts); err != nil {
			t.Fatal(err)
		}
		sent[b%W] = append(sent[b%W], cloneBatch(pts))
	}
	// Flush so every batch has been applied and WAL-appended (but NOT
	// synced): the pending write stream is now at its largest.
	flushErr := e1.Flush(ctx)
	hfs.mu.Lock()
	dead := kill.dead
	hfs.mu.Unlock()
	if site != killTail && !dead {
		t.Fatalf("no checkpoint reached the %v kill site after batch %d of %d", site, armAt, nBatches)
	}
	pend, cut := int64(0), int64(0)
	if !dead {
		if flushErr != nil {
			t.Fatal(flushErr)
		}
		requireAutoCheckpoints(t, e1)
		// Kill -9 at a random byte of the pending stream.
		hfs.mu.Lock()
		pend = disk.PendingBytes()
		if pend > 0 {
			cut = r.Int63n(pend + 1)
		}
		disk.CrashAt(cut)
		kill.dead = true
		hfs.mu.Unlock()
	}
	_ = e1.Close() // the dead process's engine; its errors are expected
	hfs.mu.Lock()
	installed, hookErr := kill.installed, kill.err
	hfs.mu.Unlock()
	if hookErr != nil {
		t.Fatal(hookErr)
	}

	// Recovery must always succeed.
	dur = &DurableOptions{FS: disk, SegmentBytes: 512, SyncEvery: 0}
	e2, rec2, err := Open(cfg, Options{}, dur)
	if err != nil {
		t.Fatalf("recovery open (%v kill, tail cut at %d of %d pending bytes): %v", site, cut, pend, err)
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
		// Each batch is one WAL record, so a shard's checkpoint covering
		// sequence s covers its first s batches.
		if sr.CheckpointSeq != installed[i] || prefix < int(installed[i]) {
			t.Fatalf("shard %d (%v kill): recovered from checkpoint seq %d with %d batches; the last checkpoint installed before the kill covers %d",
				i, site, sr.CheckpointSeq, prefix, installed[i])
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
