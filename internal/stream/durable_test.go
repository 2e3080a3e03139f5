package stream

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/faultfs"
	"birch/internal/vec"
)

// durableCfg sizes shard memory so a few hundred points per shard force
// threshold-raising rebuilds — the state a warm restart must carry.
func durableCfg(kind cf.CoreKind, shards int) core.Config {
	cfg := core.DefaultConfig(2, 4)
	cfg.Memory = shards * 4 * 1024
	cfg.Refine = false
	cfg.Core = kind
	return cfg
}

func randBatch(r *rand.Rand, n int, dim int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(dim)
		for j := range p {
			p[j] = r.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// cloneBatch snapshots a batch for later reference replay.
func cloneBatch(pts []vec.Vector) []vec.Vector {
	out := make([]vec.Vector, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}

// shardEnginesEqualBitwise fails unless the two Phase 1 engines carry
// bit-identical durable state: tree dump, leaf CFs (in chain order),
// threshold, point mass, and pager accounting.
func shardEnginesEqualBitwise(t *testing.T, label string, a, b *core.Engine) {
	t.Helper()
	ta, tb := a.Tree(), b.Tree()
	if ta.Points() != tb.Points() {
		t.Fatalf("%s: points differ: %d vs %d", label, ta.Points(), tb.Points())
	}
	if math.Float64bits(ta.Threshold()) != math.Float64bits(tb.Threshold()) {
		t.Fatalf("%s: thresholds differ: %v vs %v", label, ta.Threshold(), tb.Threshold())
	}
	var da, db strings.Builder
	if err := ta.Dump(&da); err != nil {
		t.Fatal(err)
	}
	if err := tb.Dump(&db); err != nil {
		t.Fatal(err)
	}
	if da.String() != db.String() {
		t.Fatalf("%s: tree dumps differ:\n--- a ---\n%s\n--- b ---\n%s", label, da.String(), db.String())
	}
	la, lb := ta.LeafCFs(), tb.LeafCFs()
	if len(la) != len(lb) {
		t.Fatalf("%s: leaf CF counts differ: %d vs %d", label, len(la), len(lb))
	}
	for i := range la {
		if la[i].N != lb[i].N || math.Float64bits(la[i].SS) != math.Float64bits(lb[i].SS) {
			t.Fatalf("%s: leaf CF %d differs", label, i)
		}
		for j := range la[i].LS {
			if math.Float64bits(la[i].LS[j]) != math.Float64bits(lb[i].LS[j]) {
				t.Fatalf("%s: leaf CF %d LS[%d] differs", label, i, j)
			}
		}
	}
	if a.Pager().Stats() != b.Pager().Stats() {
		t.Fatalf("%s: pager stats differ:\n%+v\n%+v", label, a.Pager().Stats(), b.Pager().Stats())
	}
	if a.Pager().DiskUsed() != b.Pager().DiskUsed() {
		t.Fatalf("%s: disk accounting differs: %d vs %d", label, a.Pager().DiskUsed(), b.Pager().DiskUsed())
	}
}

// feedRef replays one shard's surviving batches into a reference engine.
func feedRef(t *testing.T, ref *core.Engine, batches [][]vec.Vector) {
	t.Helper()
	for _, b := range batches {
		for _, p := range b {
			if err := ref.Add(p); err != nil {
				t.Fatalf("reference Add: %v", err)
			}
		}
	}
}

// snapshotsEquivalent compares two snapshots as a reader would see them:
// identical mass, threshold, subclusters, clusters, and identical
// Classify answers over a probe grid. Gen is ignored.
func snapshotsEquivalent(t *testing.T, label string, a, b *Snapshot) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil snapshot (%v, %v)", label, a == nil, b == nil)
	}
	if a.Points != b.Points {
		t.Fatalf("%s: points differ: %d vs %d", label, a.Points, b.Points)
	}
	if math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
		t.Fatalf("%s: thresholds differ", label)
	}
	cfsEqual := func(what string, xa, xb []cf.CF) {
		if len(xa) != len(xb) {
			t.Fatalf("%s: %s counts differ: %d vs %d", label, what, len(xa), len(xb))
		}
		for i := range xa {
			if xa[i].N != xb[i].N || math.Float64bits(xa[i].SS) != math.Float64bits(xb[i].SS) {
				t.Fatalf("%s: %s %d differs", label, what, i)
			}
			for j := range xa[i].LS {
				if math.Float64bits(xa[i].LS[j]) != math.Float64bits(xb[i].LS[j]) {
					t.Fatalf("%s: %s %d LS[%d] differs", label, what, i, j)
				}
			}
		}
	}
	cfsEqual("subcluster", a.Subclusters, b.Subclusters)
	cfsEqual("cluster", a.Clusters, b.Clusters)
	for x := 5.0; x < 100; x += 13 {
		for y := 5.0; y < 100; y += 13 {
			p := vec.Of(x, y)
			ia, da, oka := a.Classify(p)
			ib, db, okb := b.Classify(p)
			if ia != ib || oka != okb || math.Float64bits(da) != math.Float64bits(db) {
				t.Fatalf("%s: Classify(%v) differs: (%d %v %v) vs (%d %v %v)",
					label, p, ia, da, oka, ib, db, okb)
			}
		}
	}
}

func TestDurableFreshOpenInitializesStore(t *testing.T) {
	disk := faultfs.NewDisk()
	cfg := durableCfg(cf.CoreClassic, 2)
	e, rec, err := Open(cfg, Options{Shards: 2}, &DurableOptions{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recovered {
		t.Fatal("fresh store reported as recovered")
	}
	names, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"MANIFEST": false, "shard-0.wal.00000000000000000001": false, "shard-1.wal.00000000000000000001": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("fresh store missing %s (have %v)", n, names)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean close leaves per-shard checkpoints behind.
	names, err = disk.List()
	if err != nil {
		t.Fatal(err)
	}
	haveCkpt := 0
	for _, n := range names {
		if n == "shard-0.ckpt" || n == "shard-1.ckpt" {
			haveCkpt++
		}
	}
	if haveCkpt != 2 {
		t.Fatalf("after Close want 2 shard checkpoints, store holds %v", names)
	}
}

func TestDurableCleanCloseReopenContinuesBitIdentically(t *testing.T) {
	const W = 3
	ctx := context.Background()
	cfg := durableCfg(cf.CoreBETULA, W)
	disk := faultfs.NewDisk()
	dur := &DurableOptions{FS: disk, SegmentBytes: 2048}

	e1, rec, err := Open(cfg, Options{Shards: W}, dur)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recovered {
		t.Fatal("fresh store reported as recovered")
	}
	r := rand.New(rand.NewSource(41))
	var sent [W][][]vec.Vector // batch b goes to shard b%W (round-robin from 0)
	var total int64
	for b := 0; b < 60; b++ {
		pts := randBatch(r, 1+r.Intn(10), cfg.Dim)
		if err := e1.InsertBatch(ctx, pts); err != nil {
			t.Fatal(err)
		}
		sent[b%W] = append(sent[b%W], cloneBatch(pts))
		total += int64(len(pts))
	}
	if err := e1.Close(); err != nil {
		t.Fatalf("clean Close: %v", err)
	}

	e2, rec2, err := Open(cfg, Options{}, dur) // Shards 0 adopts the manifest's W
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := e2.Close(); err != nil {
			t.Errorf("final Close: %v", err)
		}
	}()
	if !rec2.Recovered {
		t.Fatal("reopen did not report recovery")
	}
	if len(e2.shards) != W {
		t.Fatalf("manifest shard adoption failed: %d shards", len(e2.shards))
	}
	if rec2.Points != total {
		t.Fatalf("recovered %d points, ingested %d", rec2.Points, total)
	}
	if rec2.ReplayedRecords != 0 {
		t.Fatalf("clean close should leave nothing to replay, replayed %d records", rec2.ReplayedRecords)
	}
	// A warm restart serves the recovered state immediately: the snapshot
	// is published before Open returns, no Flush or compaction needed.
	if snap := e2.Snapshot(); snap == nil || snap.Points != total {
		t.Fatalf("warm restart did not publish recovered state: %+v", snap)
	}

	// Every shard must match a reference engine fed the same batches —
	// including pager IO accounting (page writes, rebuild counts), which
	// proves the resource model survived the reopen, not just the CFs.
	scfg := shardConfig(cfg, W)
	refs := make([]*core.Engine, W)
	for i := 0; i < W; i++ {
		ref, err := core.NewEngine(scfg)
		if err != nil {
			t.Fatal(err)
		}
		feedRef(t, ref, sent[i])
		refs[i] = ref
		shardEnginesEqualBitwise(t, "after reopen", ref, e2.shards[i].eng)
	}

	// Warm restart must CONTINUE identically, not just restore: stream
	// more batches through the reopened engine (round-robin restarts at
	// shard 0) and through the references.
	r2 := rand.New(rand.NewSource(43))
	for b := 0; b < 30; b++ {
		pts := randBatch(r2, 1+r2.Intn(10), cfg.Dim)
		if err := e2.InsertBatch(ctx, pts); err != nil {
			t.Fatal(err)
		}
		sent[b%W] = append(sent[b%W], cloneBatch(pts))
		for _, p := range pts {
			if err := refs[b%W].Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	refReports := make([]shardReport, W)
	for i := 0; i < W; i++ {
		shardEnginesEqualBitwise(t, "after continued stream", refs[i], e2.shards[i].eng)
		refReports[i] = reportShard(&shard{id: i, eng: refs[i]})
	}
	snapshotsEquivalent(t, "served snapshot", e2.buildSnapshot(refReports), e2.Snapshot())
	if err := e2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableWALOnlyRecoveryAfterCrash(t *testing.T) {
	// No explicit checkpoint happens: SyncEvery=1 makes every batch
	// durable in the WAL as it is logged, and a full crash must recover
	// all of it. The shards still checkpoint on their own (SegmentBytes
	// sets the interval), so part of the mass comes from those
	// checkpoints and the rest from the WAL tail.
	const W = 2
	ctx := context.Background()
	cfg := durableCfg(cf.CoreClassic, W)
	disk := faultfs.NewDisk()
	dur := &DurableOptions{FS: disk, SegmentBytes: 1024, SyncEvery: 1}

	e1, _, err := Open(cfg, Options{Shards: W}, dur)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	var sent [W][][]vec.Vector
	var total int64
	for b := 0; b < 40; b++ {
		pts := randBatch(r, 1+r.Intn(8), cfg.Dim)
		if err := e1.InsertBatch(ctx, pts); err != nil {
			t.Fatal(err)
		}
		sent[b%W] = append(sent[b%W], cloneBatch(pts))
		total += int64(len(pts))
	}
	if err := e1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	disk.Crash()
	_ = e1.Close() // the crashed process's engine; errors are expected

	e2, rec, err := Open(cfg, Options{Shards: W}, dur)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	var ckptPts int64
	for _, sr := range rec.Shards {
		ckptPts += sr.CheckpointPoints
	}
	if rec.Points != total || rec.ReplayedPoints != total-ckptPts {
		t.Fatalf("WAL-only recovery got %d points (%d replayed, %d checkpointed), want %d",
			rec.Points, rec.ReplayedPoints, ckptPts, total)
	}
	scfg := shardConfig(cfg, W)
	for i := 0; i < W; i++ {
		ref, err := core.NewEngine(scfg)
		if err != nil {
			t.Fatal(err)
		}
		feedRef(t, ref, sent[i])
		shardEnginesEqualBitwise(t, "WAL-only recovery", ref, e2.shards[i].eng)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableCheckpointReclaimsWALSegments(t *testing.T) {
	ctx := context.Background()
	cfg := durableCfg(cf.CoreClassic, 1)
	disk := faultfs.NewDisk()
	e, _, err := Open(cfg, Options{Shards: 1}, &DurableOptions{FS: disk, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for b := 0; b < 30; b++ {
		if err := e.InsertBatch(ctx, randBatch(r, 4, cfg.Dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	names, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	segs, ckpts := 0, 0
	for _, n := range names {
		if strings.HasPrefix(n, "shard-0.wal.") {
			segs++
		}
		if n == "shard-0.ckpt" {
			ckpts++
		}
	}
	if segs != 1 || ckpts != 1 {
		t.Fatalf("after checkpoint want 1 active segment + 1 checkpoint, store holds %v", names)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableShardCountMismatchRejected(t *testing.T) {
	cfg := durableCfg(cf.CoreClassic, 2)
	disk := faultfs.NewDisk()
	dur := &DurableOptions{FS: disk}
	e, _, err := Open(cfg, Options{Shards: 2}, dur)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(cfg, Options{Shards: 3}, dur); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
}

func TestDurableIdentityMismatchRejected(t *testing.T) {
	cfg := durableCfg(cf.CoreClassic, 2)
	disk := faultfs.NewDisk()
	dur := &DurableOptions{FS: disk}
	e, _, err := Open(cfg, Options{Shards: 2}, dur)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	badCore := cfg
	badCore.Core = cf.CoreBETULA
	if _, _, err := Open(badCore, Options{Shards: 2}, dur); err == nil {
		t.Fatal("core mismatch accepted")
	}
	badDim := durableCfg(cf.CoreClassic, 2)
	badDim.Dim = 3
	if _, _, err := Open(badDim, Options{Shards: 2}, dur); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	badMetric := cfg
	badMetric.Metric = cf.D0
	if _, _, err := Open(badMetric, Options{Shards: 2}, dur); err == nil {
		t.Fatal("metric mismatch accepted")
	}
}

func TestCheckpointRequiresDurableStore(t *testing.T) {
	cfg := durableCfg(cf.CoreClassic, 1)
	e, err := New(cfg, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := e.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	if err := e.Checkpoint(context.Background()); err == nil {
		t.Fatal("Checkpoint on a non-durable engine accepted")
	}
}

func TestDurableOptionsRequireFS(t *testing.T) {
	cfg := durableCfg(cf.CoreClassic, 1)
	if _, _, err := Open(cfg, Options{Shards: 1}, &DurableOptions{}); err == nil {
		t.Fatal("DurableOptions without FS accepted")
	}
}
