package pager_test

// WAL tests live in an external test package so they can use
// internal/faultfs (which itself imports pager) without an import cycle.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"birch/internal/faultfs"
	"birch/internal/pager"
)

// collectReplay reopens the WAL and returns the replayed records.
func collectReplay(t *testing.T, fs pager.FS, prefix string, opt pager.WALOptions) (*pager.WAL, pager.ReplayStats, []uint64, [][]byte) {
	t.Helper()
	var seqs []uint64
	var payloads [][]byte
	w, st, err := pager.OpenWAL(fs, prefix, opt, func(seq uint64, p []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w, st, seqs, payloads
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	disk := faultfs.NewDisk()
	opt := pager.WALOptions{SegmentBytes: 1 << 16, SyncEvery: 1}
	w, st, err := pager.OpenWAL(disk, "s0", opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Torn {
		t.Fatalf("fresh log stats = %+v", st)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%02d-%s", i, strings.Repeat("x", i*3)))
		want = append(want, p)
		seq, err := w.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append seq = %d, want %d", seq, i+1)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	disk.Crash() // SyncEvery=1: everything must already be durable

	w2, st2, seqs, payloads := collectReplay(t, disk, "s0", opt)
	if st2.Torn {
		t.Fatalf("clean close replayed torn: %+v", st2)
	}
	if len(seqs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(seqs), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d: seq=%d payload=%q, want seq=%d payload=%q",
				i, seqs[i], payloads[i], i+1, want[i])
		}
	}
	// The log keeps appending where it left off.
	seq, err := w2.Append([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 21 {
		t.Fatalf("post-replay Append seq = %d, want 21", seq)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRotationSpansSegments(t *testing.T) {
	disk := faultfs.NewDisk()
	opt := pager.WALOptions{SegmentBytes: 128, SyncEvery: 1}
	w, _, err := pager.OpenWAL(disk, "s0", opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%02d-abcdefgh", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected ≥3 segments from rotation, got %v", names)
	}
	_, st, seqs, _ := collectReplay(t, disk, "s0", opt)
	if st.Torn || len(seqs) != n {
		t.Fatalf("replay after rotation: %d records (torn=%v), want %d", len(seqs), st.Torn, n)
	}
	if st.Segments != len(names) {
		t.Fatalf("stats.Segments = %d, want %d", st.Segments, len(names))
	}
}

func TestWALUnsyncedTailLostSyncedPrefixKept(t *testing.T) {
	disk := faultfs.NewDisk()
	opt := pager.WALOptions{SegmentBytes: 1 << 16, SyncEvery: 0}
	w, _, err := pager.OpenWAL(disk, "s0", opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("synced-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("volatile-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	disk.Crash()

	_, _, seqs, payloads := collectReplay(t, disk, "s0", opt)
	if len(seqs) != 5 {
		t.Fatalf("replayed %d records, want the 5 synced ones", len(seqs))
	}
	for i, p := range payloads {
		if want := fmt.Sprintf("synced-%d", i); string(p) != want {
			t.Fatalf("record %d = %q, want %q", i, p, want)
		}
	}
}

// TestWALCrashAtEveryByte is the exhaustive tear sweep: the same record
// stream crashed at every possible durable byte count must always
// recover a clean record prefix, and recovery must be idempotent.
func TestWALCrashAtEveryByte(t *testing.T) {
	opt := pager.WALOptions{SegmentBytes: 96, SyncEvery: 0}
	build := func() (*faultfs.Disk, [][]byte) {
		disk := faultfs.NewDisk()
		w, _, err := pager.OpenWAL(disk, "s0", opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for i := 0; i < 8; i++ {
			p := []byte(fmt.Sprintf("rec-%d-%s", i, strings.Repeat("y", (i*7)%19)))
			want = append(want, p)
			if _, err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		return disk, want
	}
	probe, _ := build()
	pend := probe.PendingBytes()
	if pend == 0 {
		t.Fatal("expected pending bytes")
	}
	for kill := int64(0); kill <= pend; kill++ {
		disk, want := build()
		disk.CrashAt(kill)
		_, _, seqs, payloads := collectReplay(t, disk, "s0", opt)
		// Replay must be a strict prefix of the appended stream.
		if len(seqs) > len(want) {
			t.Fatalf("kill=%d: replayed %d > appended %d", kill, len(seqs), len(want))
		}
		for i := range seqs {
			if seqs[i] != uint64(i+1) {
				t.Fatalf("kill=%d: seq[%d]=%d, want %d", kill, i, seqs[i], i+1)
			}
			if !bytes.Equal(payloads[i], want[i]) {
				t.Fatalf("kill=%d: payload[%d]=%q, want %q", kill, i, payloads[i], want[i])
			}
		}
		// Recovery is idempotent: a second crash-free reopen sees the
		// same records (the tear was truncated away).
		disk.Crash()
		_, st2, seqs2, _ := collectReplay(t, disk, "s0", opt)
		if len(seqs2) != len(seqs) || st2.Torn {
			t.Fatalf("kill=%d: second reopen replayed %d (torn=%v), want %d (clean)",
				kill, len(seqs2), st2.Torn, len(seqs))
		}
	}
}

func TestWALTruncateThrough(t *testing.T) {
	disk := faultfs.NewDisk()
	opt := pager.WALOptions{SegmentBytes: 96, SyncEvery: 1}
	w, _, err := pager.OpenWAL(disk, "s0", opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%02d-xxxxxxxx", i))); err != nil {
			t.Fatal(err)
		}
	}
	before, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	ckptSeq := w.LastSeq() - 4
	if err := w.TruncateThrough(ckptSeq); err != nil {
		t.Fatal(err)
	}
	after, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("TruncateThrough removed nothing: before=%v after=%v", before, after)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay yields only records from surviving segments; the first
	// survivor must cover everything > ckptSeq.
	_, _, seqs, _ := collectReplay(t, disk, "s0", opt)
	if len(seqs) == 0 {
		t.Fatal("no records after truncation")
	}
	if seqs[0] > ckptSeq+1 {
		t.Fatalf("first surviving seq %d leaves a gap after checkpoint seq %d", seqs[0], ckptSeq)
	}
	if seqs[len(seqs)-1] != 24 {
		t.Fatalf("last seq = %d, want 24", seqs[len(seqs)-1])
	}
}

func TestWALDroppedSyncsStillRecoverCleanly(t *testing.T) {
	disk := faultfs.NewDisk()
	disk.DropSyncs(true)
	opt := pager.WALOptions{SegmentBytes: 64, SyncEvery: 1}
	w, _, err := pager.OpenWAL(disk, "s0", opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("r%02d-aaaaaaaa", i))); err != nil {
			t.Fatal(err)
		}
	}
	disk.CrashAt(disk.PendingBytes() / 3)
	_, _, seqs, _ := collectReplay(t, disk, "s0", opt)
	// With lying fsyncs nothing is guaranteed durable; the invariant is
	// only that what does replay is a clean prefix.
	for i := range seqs {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, seqs[i], i+1)
		}
	}
}

func TestWALOnDirFS(t *testing.T) {
	dir := t.TempDir()
	fs := pager.DirFS(dir)
	opt := pager.WALOptions{SegmentBytes: 128, SyncEvery: 1}
	w, _, err := pager.OpenWAL(fs, "shard-0", opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("os-record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, seqs, payloads := collectReplay(t, fs, "shard-0", opt)
	if st.Torn || len(seqs) != 10 {
		t.Fatalf("DirFS replay: %d records, torn=%v", len(seqs), st.Torn)
	}
	if string(payloads[9]) != "os-record-9" {
		t.Fatalf("payload[9] = %q", payloads[9])
	}
}

func TestWALOversizedPayloadRejected(t *testing.T) {
	disk := faultfs.NewDisk()
	w, _, err := pager.OpenWAL(disk, "s0", pager.WALOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(make([]byte, 1<<26+1)); err != pager.ErrPayloadTooLarge {
		t.Fatalf("Append oversized = %v, want ErrPayloadTooLarge", err)
	}
}

// walDiskBytes sums the sizes of prefix's segment files on fs.
func walDiskBytes(t *testing.T, fs pager.FS, prefix string) int64 {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range names {
		if !strings.HasPrefix(n, prefix+".wal.") {
			continue
		}
		f, err := fs.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		total += size
	}
	return total
}

// TestWALBytesTracksDisk: Bytes is the log's size on disk through
// appends, rotations, truncation and a reopen, and rotating an empty
// active segment creates no new file.
func TestWALBytesTracksDisk(t *testing.T) {
	disk := faultfs.NewDisk()
	opt := pager.WALOptions{SegmentBytes: 96, SyncEvery: 1}
	w, _, err := pager.OpenWAL(disk, "s0", opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got, want := w.Bytes(), walDiskBytes(t, disk, "s0"); got != want {
			t.Fatalf("%s: Bytes() = %d, segments on disk hold %d", when, got, want)
		}
	}
	check("fresh")
	for i := 0; i < 24; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%02d-xxxxxxxx", i))); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after append %d", i))
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	before, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	after, err := disk.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("rotating an empty segment changed the store: %v -> %v", before, after)
	}
	check("after rotation")
	if err := w.TruncateThrough(w.LastSeq()); err != nil {
		t.Fatal(err)
	}
	check("after truncation")
	if w.Bytes() != 0 {
		t.Fatalf("rotate + truncate through the last record left %d bytes", w.Bytes())
	}
	if _, err := w.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, _, _, _ = collectReplay(t, disk, "s0", opt)
	check("after reopen")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALCoveredRestartsPastCheckpoint: a log that holds no record
// beyond Covered restarts at Covered+1, whether its segments are gone
// or hold only covered records; a log with records beyond Covered is
// left alone.
func TestWALCoveredRestartsPastCheckpoint(t *testing.T) {
	appendN := func(w *pager.WAL, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("r%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name     string
		records  int  // written before the reopen
		dropSegs bool // delete every segment before the reopen
		covered  uint64
		wantNext uint64
		restart  bool // the reopen must leave one fresh segment at wantNext
	}{
		{"segments lost", 30, true, 30, 31, true},
		{"only covered records", 10, false, 30, 31, true},
		{"records beyond covered", 35, false, 30, 36, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := faultfs.NewDisk()
			opt := pager.WALOptions{SegmentBytes: 256, SyncEvery: 1}
			w, _, err := pager.OpenWAL(disk, "s0", opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			appendN(w, tc.records)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.dropSegs {
				names, err := disk.List()
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range names {
					if err := disk.Remove(n); err != nil {
						t.Fatal(err)
					}
				}
			}
			before, err := disk.List()
			if err != nil {
				t.Fatal(err)
			}
			opt.Covered = tc.covered
			w, _, _, _ = collectReplay(t, disk, "s0", opt)
			if got := w.LastSeq() + 1; got != tc.wantNext {
				t.Fatalf("next seq after reopen = %d, want %d", got, tc.wantNext)
			}
			after, err := disk.List()
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Join(before, " ")
			if tc.restart {
				want = fmt.Sprintf("s0.wal.%020d", tc.wantNext)
			}
			if got := strings.Join(after, " "); got != want {
				t.Fatalf("store after reopen holds %q, want %q", got, want)
			}
			if w.Bytes() != walDiskBytes(t, disk, "s0") {
				t.Fatalf("Bytes() = %d, disk holds %d", w.Bytes(), walDiskBytes(t, disk, "s0"))
			}
			seq, err := w.Append([]byte("new"))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			disk.Crash()
			_, st, seqs, _ := collectReplay(t, disk, "s0", opt)
			if st.Torn || len(seqs) == 0 || seqs[len(seqs)-1] != seq || seq != tc.wantNext {
				t.Fatalf("replay after the restart: seqs %v (torn=%v), want to end at %d", seqs, st.Torn, tc.wantNext)
			}
		})
	}
}

// discardFS is a pager.FS whose files drop every write, so an
// allocation count of WAL.Append sees only the WAL's own allocations.
type discardFS struct{}

type discardFile struct{}

func (discardFS) Create(string) (pager.File, error) { return discardFile{}, nil }
func (discardFS) Open(string) (pager.File, error)   { return discardFile{}, nil }
func (discardFS) Remove(string) error               { return nil }
func (discardFS) Rename(string, string) error       { return nil }
func (discardFS) List() ([]string, error)           { return nil, nil }

func (discardFile) ReadAt(p []byte, _ int64) (int, error) {
	return 0, fmt.Errorf("discardFile: no data")
}
func (discardFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardFile) Size() (int64, error)                   { return 0, nil }
func (discardFile) Truncate(int64) error                   { return nil }
func (discardFile) Sync() error                            { return nil }
func (discardFile) Close() error                           { return nil }

// TestWALAppendSteadyStateAllocs pins Append at zero allocations once
// its frame buffer has grown: every record is framed in one reusable
// WAL-owned buffer.
func TestWALAppendSteadyStateAllocs(t *testing.T) {
	w, _, err := pager.OpenWAL(discardFS{}, "s0", pager.WALOptions{SegmentBytes: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4+64*8*8) // one 64-point batch record at d=8
	if _, err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %.1f times per record, want 0", allocs)
	}
}
