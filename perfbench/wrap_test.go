package main

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/pager"
	"birch/internal/server"
	"birch/internal/stream"
	"birch/internal/vec"
)

// fakeBackend records what reaches it and returns canned answers.
type fakeBackend struct {
	server.Backend // methods the tests do not call
	got            []vec.Vector
	err            error
	snap           *stream.Snapshot
}

func (f *fakeBackend) InsertBatch(_ context.Context, pts []vec.Vector) error {
	f.got = pts
	return f.err
}
func (f *fakeBackend) Snapshot() *stream.Snapshot { return f.snap }
func (f *fakeBackend) Dim() int                   { return 2 }
func (f *fakeBackend) CoreKind() cf.CoreKind      { return cf.CoreClassic }
func (f *fakeBackend) Summaries(context.Context) ([]core.Summary, error) {
	return nil, f.err
}

func TestTimedBackendPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	snap := &stream.Snapshot{Gen: 7}
	fb := &fakeBackend{err: boom, snap: snap}
	tb := newTimedBackend(fb, time.Now())
	pts := []vec.Vector{{1, 2}, {3, 4}}
	if err := tb.InsertBatch(context.Background(), pts); !errors.Is(err, boom) {
		t.Fatalf("InsertBatch error %v, want %v", err, boom)
	}
	if len(fb.got) != 2 || &fb.got[0][0] != &pts[0][0] {
		t.Error("InsertBatch must hand the backend the caller's points unchanged")
	}
	if tb.Snapshot() != snap {
		t.Error("Snapshot must return the backend's snapshot")
	}
	if tb.Dim() != 2 || tb.CoreKind() != cf.CoreClassic {
		t.Error("embedded methods must pass through")
	}
	if _, err := tb.Summaries(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Summaries error %v", err)
	}
	if tb.insSeq.Load() != 1 || tb.snapSeq.Load() != 1 || len(tb.insertDurations()) != 1 {
		t.Error("each call must be counted once")
	}
	if tb.insExit.Load() < tb.insEntry.Load() {
		t.Error("exit before entry")
	}
}

// memFS is a one-level in-memory pager.FS with injectable errors.
type memFS struct {
	files     map[string]*memFile
	createErr error
}

type memFile struct {
	data     []byte
	writeErr error
	syncErr  error
	short    int // when > 0, WriteAt writes only this many bytes
}

func (m *memFS) Create(name string) (pager.File, error) {
	if m.createErr != nil {
		return nil, m.createErr
	}
	f := &memFile{}
	m.files[name] = f
	return f, nil
}
func (m *memFS) Open(name string) (pager.File, error) {
	f, ok := m.files[name]
	if !ok {
		return nil, errors.New("no such file")
	}
	return f, nil
}
func (m *memFS) Remove(string) error         { return nil }
func (m *memFS) Rename(string, string) error { return nil }
func (m *memFS) List() ([]string, error)     { return nil, nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) { return copy(p, f.data[off:]), nil }
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.short > 0 {
		p = p[:f.short]
	}
	if need := int(off) + len(p); need > len(f.data) {
		f.data = append(f.data, make([]byte, need-len(f.data))...)
	}
	return copy(f.data[off:], p), f.writeErr
}
func (f *memFile) Size() (int64, error)   { return int64(len(f.data)), nil }
func (f *memFile) Truncate(n int64) error { f.data = f.data[:n]; return nil }
func (f *memFile) Sync() error            { return f.syncErr }
func (f *memFile) Close() error           { return nil }

func TestTimedFSPassesBytesAndErrorsThrough(t *testing.T) {
	mem := &memFS{files: map[string]*memFile{}}
	rec := &ioRecorder{}
	fs := timedFS{FS: mem, rec: rec}

	wal, err := fs.Create("shard-0.wal.00000000000000000001")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("frame bytes")
	if n, err := wal.WriteAt(payload, 3); n != len(payload) || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if got := mem.files["shard-0.wal.00000000000000000001"].data[3:]; !bytes.Equal(got, payload) {
		t.Fatalf("bytes on disk %q, want %q", got, payload)
	}
	buf := make([]byte, len(payload))
	if n, err := wal.ReadAt(buf, 3); n != len(payload) || err != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("ReadAt = %d, %v, %q", n, err, buf)
	}

	// A short write with an error comes back exactly as the file said.
	boom := errors.New("disk full")
	inner := mem.files["shard-0.wal.00000000000000000001"]
	inner.short, inner.writeErr, inner.syncErr = 4, boom, boom
	if n, err := wal.WriteAt(payload, 0); n != 4 || !errors.Is(err, boom) {
		t.Errorf("short WriteAt = %d, %v; want 4, %v", n, err, boom)
	}
	if err := wal.Sync(); !errors.Is(err, boom) {
		t.Errorf("Sync error %v, want %v", err, boom)
	}

	// Checkpoint files are not WAL.
	ck, err := fs.Create("shard-0.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.WriteAt([]byte("ckpt"), 0); err != nil {
		t.Fatal(err)
	}
	if err := ck.Sync(); err != nil {
		t.Fatal(err)
	}

	s := rec.snapshot()
	if s.WALWrites != 2 || s.WALBytes != int64(len(payload)+4) || s.WALSyncs != 1 {
		t.Errorf("WAL writes %d bytes %d syncs %d", s.WALWrites, s.WALBytes, s.WALSyncs)
	}
	if len(s.SyncDur) != 1 || len(s.WriteDur) != 2 {
		t.Errorf("timed %d syncs and %d writes", len(s.SyncDur), len(s.WriteDur))
	}

	// Errors from the FS itself pass through too.
	mem.createErr = boom
	if f, err := fs.Create("x"); f != nil || !errors.Is(err, boom) {
		t.Errorf("Create = %v, %v", f, err)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Error("Open of a missing file must fail")
	}
}
