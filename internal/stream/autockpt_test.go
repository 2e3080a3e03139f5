package stream

// Tests of the automatic checkpoint policy (durable.go): the WAL a
// shard keeps on disk stays under max(SegmentBytes, 4 × its last
// checkpoint) plus one record, checkpoint writes stay a quarter of the
// WAL bytes, a failed attempt keeps the old checkpoint and every
// segment and is retried one interval later, and a log whose segments
// are gone restarts past the checkpoint instead of reusing its numbers.

import (
	"context"
	"encoding/binary"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/faultfs"
	"birch/internal/pager"
	"birch/internal/vec"
)

// fsEvent is one operation seen by hookFS. Rename reports its source
// name; write reports the byte count it was asked to write.
type fsEvent struct {
	op    string // create, open, remove, rename, write, sync, close
	name  string
	n     int
	after bool // false: about to run; true: has run
}

// hookFS wraps a faultfs.Disk and calls hook before and after every
// mutating operation, one operation at a time. A non-nil error from the
// before-call fails the operation without running it; a non-nil error
// from the after-call replaces its result. Reads pass straight through.
type hookFS struct {
	disk *faultfs.Disk
	mu   sync.Mutex
	hook func(fsEvent) error
}

var _ pager.FS = (*hookFS)(nil)

func (h *hookFS) do(op, name string, n int, run func() error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hook != nil {
		if err := h.hook(fsEvent{op: op, name: name, n: n}); err != nil {
			return err
		}
	}
	err := run()
	if h.hook != nil {
		if herr := h.hook(fsEvent{op: op, name: name, n: n, after: true}); herr != nil {
			err = herr
		}
	}
	return err
}

func (h *hookFS) Create(name string) (pager.File, error) {
	var f pager.File
	err := h.do("create", name, 0, func() (err error) { f, err = h.disk.Create(name); return err })
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h, name: name}, nil
}

func (h *hookFS) Open(name string) (pager.File, error) {
	var f pager.File
	err := h.do("open", name, 0, func() (err error) { f, err = h.disk.Open(name); return err })
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h, name: name}, nil
}

func (h *hookFS) Remove(name string) error {
	return h.do("remove", name, 0, func() error { return h.disk.Remove(name) })
}

func (h *hookFS) Rename(oldName, newName string) error {
	return h.do("rename", oldName, 0, func() error { return h.disk.Rename(oldName, newName) })
}

func (h *hookFS) List() ([]string, error) { return h.disk.List() }

type hookFile struct {
	pager.File
	fs   *hookFS
	name string
}

func (f *hookFile) WriteAt(p []byte, off int64) (int, error) {
	var n int
	err := f.fs.do("write", f.name, len(p), func() (err error) { n, err = f.File.WriteAt(p, off); return err })
	return n, err
}

func (f *hookFile) Sync() error {
	return f.fs.do("sync", f.name, 0, f.File.Sync)
}

func (f *hookFile) Close() error {
	return f.fs.do("close", f.name, 0, f.File.Close)
}

func isCkptTmp(name string) bool { return strings.HasSuffix(name, ".ckpt.tmp") }
func isWALSeg(name string) bool  { return strings.Contains(name, ".wal.") }

// readCkptSeq returns the WAL sequence number shard i's installed
// checkpoint covers, or 0 when it has none.
func readCkptSeq(disk *faultfs.Disk, i int) (uint64, error) {
	if disk.DurableLen(shardCkptName(i)) < 0 {
		return 0, nil
	}
	f, err := disk.Open(shardCkptName(i))
	if err != nil {
		return 0, err
	}
	var hdr [16]byte
	_, err = f.ReadAt(hdr[:], 0)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return binary.LittleEndian.Uint64(hdr[8:]), err
}

// ckptSeqOnDisk is readCkptSeq for the test goroutine.
func ckptSeqOnDisk(t *testing.T, disk *faultfs.Disk, i int) uint64 {
	t.Helper()
	seq, err := readCkptSeq(disk, i)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// walMeter tracks, through hookFS events, one shard's WAL size on disk,
// the bytes written to WAL segments and to checkpoints, and the size of
// the last installed checkpoint. It checks the policy bound after every
// WAL write: the log held less than one interval beyond base before the
// record just written, so it never exceeds base + interval plus one
// record. base is 0 after a successful checkpoint and the log's size at
// a failed attempt, which moves the next one an interval on.
type walMeter struct {
	t        *testing.T
	interval func(ckptBytes int64) int64

	segs               map[string]int64
	base               int64
	walWritten         int64
	ckptWritten        int64
	tmpSize, lastCkpt  int64
	maxWAL, maxRecord  int64
	ckptStartWALWrites []int64 // walWritten when each checkpoint began
}

func (m *walMeter) onDisk() int64 {
	var n int64
	for _, size := range m.segs {
		n += size
	}
	return n
}

func newWALMeter(t *testing.T, segBytes int) *walMeter {
	ds := &durableState{walOpt: pager.WALOptions{SegmentBytes: segBytes}}
	return &walMeter{t: t, interval: ds.ckptInterval, segs: map[string]int64{}}
}

func (m *walMeter) event(ev fsEvent) {
	if !ev.after {
		return
	}
	switch {
	case ev.op == "create" && isWALSeg(ev.name):
		m.segs[ev.name] = 0
	case ev.op == "remove" && isWALSeg(ev.name):
		delete(m.segs, ev.name)
	case ev.op == "write" && isWALSeg(ev.name):
		m.segs[ev.name] += int64(ev.n)
		m.walWritten += int64(ev.n)
		m.maxRecord = max(m.maxRecord, int64(ev.n))
		onDisk := m.onDisk()
		m.maxWAL = max(m.maxWAL, onDisk)
		if before, bound := onDisk-int64(ev.n), m.base+m.interval(m.lastCkpt); before >= bound {
			m.t.Errorf("WAL held %d bytes before a %d-byte record; the policy bound is %d", before, ev.n, bound)
		}
	case ev.op == "create" && isCkptTmp(ev.name):
		m.tmpSize = 0
		m.base = m.onDisk()
		m.ckptStartWALWrites = append(m.ckptStartWALWrites, m.walWritten)
	case ev.op == "write" && isCkptTmp(ev.name):
		m.tmpSize += int64(ev.n)
		m.ckptWritten += int64(ev.n)
	case ev.op == "rename" && isCkptTmp(ev.name):
		m.lastCkpt, m.base = m.tmpSize, 0
	}
}

// TestAutoCheckpointBoundsWALAndReplay runs more than 20 policy
// intervals into one shard and checks the policy's two bounds, then
// crashes and checks that recovery replays within the bound and
// conserves every point bit for bit.
func TestAutoCheckpointBoundsWALAndReplay(t *testing.T) {
	const segBytes = 256 // below 4 × every checkpoint: the 4× term sets the interval
	ctx := context.Background()
	cfg := durableCfg(cf.CoreClassic, 1)
	disk := faultfs.NewDisk()
	m := newWALMeter(t, segBytes)
	hfs := &hookFS{disk: disk, hook: func(ev fsEvent) error { m.event(ev); return nil }}
	dur := &DurableOptions{FS: hfs, SegmentBytes: segBytes, SyncEvery: 1}
	e1, _, err := Open(cfg, Options{Shards: 1}, dur)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	var batches [][]vec.Vector
	var total int64
	for b := 0; b < 1500; b++ {
		pts := randBatch(r, 1+r.Intn(12), cfg.Dim)
		if err := e1.InsertBatch(ctx, pts); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, cloneBatch(pts))
		total += int64(len(pts))
	}
	if err := e1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := e1.Stats().Shards[0]
	hfs.mu.Lock()
	walWritten, ckptWritten, lastCkpt, maxWAL, maxRecord := m.walWritten, m.ckptWritten, m.lastCkpt, m.maxWAL, m.maxRecord
	hfs.mu.Unlock()
	if st.Checkpoints < 20 {
		t.Fatalf("%d automatic checkpoints over %d WAL bytes, want at least 20 intervals", st.Checkpoints, walWritten)
	}
	if lastCkpt*4 <= segBytes {
		t.Fatalf("last checkpoint is %d bytes: not above SegmentBytes/4, so the 4× term was not exercised", lastCkpt)
	}
	if ckptWritten > walWritten/4+lastCkpt {
		t.Fatalf("checkpoints wrote %d bytes against %d WAL bytes: more than a quarter plus one %d-byte checkpoint",
			ckptWritten, walWritten, lastCkpt)
	}
	t.Logf("%d checkpoints, %d WAL bytes, %d checkpoint bytes (%.3f), WAL on disk peaked at %d (last checkpoint %d B)",
		st.Checkpoints, walWritten, ckptWritten, float64(ckptWritten)/float64(walWritten), maxWAL, lastCkpt)

	// SyncEvery=1 made every batch durable: a crash loses nothing, and
	// recovery replays no more than the bound allows.
	disk.Crash()
	_ = e1.Close() // the crashed process's engine; errors are expected
	e2, rec, err := Open(cfg, Options{Shards: 1}, &DurableOptions{FS: disk, SegmentBytes: segBytes, SyncEvery: 1})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if rec.Points != total {
		t.Fatalf("recovered %d points, want %d", rec.Points, total)
	}
	// A record is a 16-byte frame header, a 4-byte count and the points.
	replayed := rec.ReplayedRecords*(16+4) + rec.ReplayedPoints*int64(cfg.Dim)*8
	if bound := m.interval(lastCkpt) + maxRecord; replayed > bound {
		t.Fatalf("recovery replayed %d WAL bytes, policy bound %d", replayed, bound)
	}
	ref, err := core.NewEngine(shardConfig(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	feedRef(t, ref, batches)
	shardEnginesEqualBitwise(t, "after bounded replay", ref, e2.shards[0].eng)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCheckpointFailureKeepsStoreAndRetries fails one automatic
// checkpoint (a torn temp-file write, or a failed temp-file fsync) and
// checks that the failure reaches Err, that the previous checkpoint
// and every WAL segment stay in place, that the next attempt waits one
// full interval and succeeds, and that a crash afterwards still
// recovers every point.
func TestAutoCheckpointFailureKeepsStoreAndRetries(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(d *faultfs.Disk, ev fsEvent) bool // arms the fault; true once armed
	}{
		{"torn tmp write", func(d *faultfs.Disk, ev fsEvent) bool {
			if ev.op == "create" && ev.after && isCkptTmp(ev.name) {
				d.FailWriteAfter(40, nil)
				return true
			}
			return false
		}},
		{"failed tmp fsync", func(d *faultfs.Disk, ev fsEvent) bool {
			if ev.op == "sync" && !ev.after && isCkptTmp(ev.name) {
				d.FailNextSync(nil)
				return true
			}
			return false
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const segBytes = 256
			ctx := context.Background()
			cfg := durableCfg(cf.CoreClassic, 1)
			disk := faultfs.NewDisk()
			m := newWALMeter(t, segBytes)
			var (
				armNext  bool // fail the next checkpoint
				failedAt = -1 // index into m.ckptStartWALWrites of the failed attempt
			)
			hfs := &hookFS{disk: disk}
			hfs.hook = func(ev fsEvent) error {
				m.event(ev)
				if armNext && tc.arm(disk, ev) {
					armNext = false
					failedAt = len(m.ckptStartWALWrites) - 1
				}
				if ev.op == "close" && ev.after && isCkptTmp(ev.name) {
					// The failed attempt is over: heal the disk for the WAL.
					disk.ClearFaults()
				}
				return nil
			}
			dur := &DurableOptions{FS: hfs, SegmentBytes: segBytes, SyncEvery: 1}
			e1, _, err := Open(cfg, Options{Shards: 1}, dur)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(31))
			var batches [][]vec.Vector
			var total int64
			feed := func(n int) {
				for b := 0; b < n; b++ {
					pts := randBatch(r, 1+r.Intn(12), cfg.Dim)
					if err := e1.InsertBatch(ctx, pts); err != nil {
						t.Fatal(err)
					}
					batches = append(batches, cloneBatch(pts))
					total += int64(len(pts))
				}
			}
			checkpoints := func() int64 {
				if err := e1.Flush(ctx); err != nil && e1.Err() == nil {
					t.Fatal(err)
				}
				return e1.Stats().Shards[0].Checkpoints
			}
			feed(200)
			okBefore := checkpoints()
			if okBefore < 2 || e1.Err() != nil {
				t.Fatalf("before the fault: %d checkpoints, Err %v; want ≥2 and nil", okBefore, e1.Err())
			}
			// The worker is idle after the Flush: what the store holds now
			// is what the next, failing attempt starts from.
			ckptBefore := ckptSeqOnDisk(t, disk, 0)
			var segsBefore []string
			names, err := disk.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if isWALSeg(n) {
					segsBefore = append(segsBefore, n)
				}
			}
			hfs.mu.Lock()
			interval := m.interval(m.lastCkpt)
			armNext = true
			hfs.mu.Unlock()
			// Feed one batch at a time until the armed attempt has run.
			for i := 0; ; i++ {
				if i == 400 {
					t.Fatal("no automatic checkpoint ran after the fault was armed")
				}
				feed(1)
				checkpoints()
				hfs.mu.Lock()
				done := failedAt >= 0
				hfs.mu.Unlock()
				if done {
					break
				}
			}
			if err := e1.Err(); err == nil || !strings.Contains(err.Error(), "checkpoint") {
				t.Fatalf("failed automatic checkpoint reported Err %v", err)
			}
			if got := checkpoints(); got != okBefore {
				t.Fatalf("the failed attempt counted as a checkpoint: %d, want %d", got, okBefore)
			}
			if got := ckptSeqOnDisk(t, disk, 0); got != ckptBefore {
				t.Fatalf("failed attempt replaced the checkpoint: seq %d, want %d", got, ckptBefore)
			}
			names, err = disk.List()
			if err != nil {
				t.Fatal(err)
			}
			have := strings.Join(names, " ")
			for _, n := range segsBefore {
				if !strings.Contains(have, n) {
					t.Fatalf("failed attempt deleted WAL segment %s (store %v)", n, names)
				}
			}

			// The retry waits one interval, not one batch, and succeeds.
			for i := 0; checkpoints() == okBefore; i++ {
				if i == 400 {
					t.Fatal("no automatic checkpoint after the failed one")
				}
				feed(1)
			}
			hfs.mu.Lock()
			starts := append([]int64(nil), m.ckptStartWALWrites...)
			hfs.mu.Unlock()
			if len(starts) != failedAt+2 {
				t.Fatalf("%d attempts after the failure, want exactly 1 (the retry)", len(starts)-failedAt-1)
			}
			if gap := starts[failedAt+1] - starts[failedAt]; gap < interval {
				t.Fatalf("retry began %d WAL bytes after the failure, want at least one %d-byte interval", gap, interval)
			}
			if ckptSeqOnDisk(t, disk, 0) <= ckptBefore {
				t.Fatal("the retry did not install a newer checkpoint")
			}
			names, err = disk.List()
			if err != nil {
				t.Fatal(err)
			}
			segs := 0
			for _, n := range names {
				if isWALSeg(n) {
					segs++
				}
			}
			if segs != 1 {
				t.Fatalf("after the retry the store holds %v, want one WAL segment", names)
			}

			disk.Crash()
			_ = e1.Close() // the crashed process's engine; errors are expected
			e2, rec, err := Open(cfg, Options{Shards: 1}, &DurableOptions{FS: disk, SegmentBytes: segBytes})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			if rec.Points != total {
				t.Fatalf("recovered %d points, want %d", rec.Points, total)
			}
			ref, err := core.NewEngine(shardConfig(cfg, 1))
			if err != nil {
				t.Fatal(err)
			}
			feedRef(t, ref, batches)
			shardEnginesEqualBitwise(t, "after a failed and a retried checkpoint", ref, e2.shards[0].eng)
			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableNewRecordsNumberedPastCheckpoint is the regression test
// for a shard whose checkpoint covers sequence S but whose WAL segments
// are gone: the reopened log must number new records from S+1, or the
// next recovery skips them as covered and silently loses their points.
func TestDurableNewRecordsNumberedPastCheckpoint(t *testing.T) {
	ctx := context.Background()
	cfg := durableCfg(cf.CoreClassic, 1)
	disk := faultfs.NewDisk()
	dur := &DurableOptions{FS: disk, SyncEvery: 1}
	e1, _, err := Open(cfg, Options{Shards: 1}, dur)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	var batches [][]vec.Vector
	feed := func(e *Engine, n int) {
		for b := 0; b < n; b++ {
			pts := randBatch(r, 4, cfg.Dim)
			if err := e.InsertBatch(ctx, pts); err != nil {
				t.Fatal(err)
			}
			batches = append(batches, cloneBatch(pts))
		}
	}
	feed(e1, 30)
	if err := e1.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if isWALSeg(n) {
			if err := disk.Remove(n); err != nil {
				t.Fatal(err)
			}
		}
	}

	e2, rec, err := Open(cfg, Options{Shards: 1}, dur)
	if err != nil {
		t.Fatal(err)
	}
	if sr := rec.Shards[0]; sr.CheckpointSeq != 30 || sr.LastSeq != 30 {
		t.Fatalf("reopened shard: checkpoint seq %d, WAL last seq %d; want 30 and 30", sr.CheckpointSeq, sr.LastSeq)
	}
	feed(e2, 5)
	if err := e2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	disk.Crash()
	_ = e2.Close() // the crashed process's engine; errors are expected

	e3, rec, err := Open(cfg, Options{Shards: 1}, dur)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Points != 140 || rec.ReplayedRecords != 5 {
		t.Fatalf("recovered %d points from %d replayed records, want 140 from 5", rec.Points, rec.ReplayedRecords)
	}
	ref, err := core.NewEngine(shardConfig(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	feedRef(t, ref, batches)
	shardEnginesEqualBitwise(t, "records past a lost WAL", ref, e3.shards[0].eng)
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}
}
