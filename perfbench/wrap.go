package main

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"birch/internal/pager"
	"birch/internal/server"
	"birch/internal/stream"
	"birch/internal/vec"
)

// timedBackend is a server.Backend that timestamps the admission
// layer's calls into the engine. Every other method passes straight
// through. With one insert client and one classify client, each
// sending MaxBatch points per request, every request is exactly one
// collector flush, so the last call's timestamps belong to the request
// the client is waiting on; the sequence counters let the client check
// that.
type timedBackend struct {
	server.Backend
	epoch time.Time

	insSeq   atomic.Int64
	insEntry atomic.Int64 // ns from epoch
	insExit  atomic.Int64
	snapSeq  atomic.Int64
	snapAt   atomic.Int64

	mu     sync.Mutex
	insDur []time.Duration
}

func newTimedBackend(b server.Backend, epoch time.Time) *timedBackend {
	return &timedBackend{Backend: b, epoch: epoch}
}

// InsertBatch implements server.Backend.
func (b *timedBackend) InsertBatch(ctx context.Context, pts []vec.Vector) error {
	t0 := time.Now()
	err := b.Backend.InsertBatch(ctx, pts)
	t1 := time.Now()
	b.insEntry.Store(int64(t0.Sub(b.epoch)))
	b.insExit.Store(int64(t1.Sub(b.epoch)))
	b.insSeq.Add(1)
	b.mu.Lock()
	b.insDur = append(b.insDur, t1.Sub(t0))
	b.mu.Unlock()
	return err
}

// Snapshot implements server.Backend. The classify collector loads the
// snapshot once per flush, right before it scans.
func (b *timedBackend) Snapshot() *stream.Snapshot {
	b.snapAt.Store(int64(time.Since(b.epoch)))
	b.snapSeq.Add(1)
	return b.Backend.Snapshot()
}

// insertDurations returns the recorded InsertBatch durations.
func (b *timedBackend) insertDurations() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.insDur...)
}

// ioRecorder accumulates the store's write and sync activity.
type ioRecorder struct {
	mu        sync.Mutex
	walWrites int64
	walBytes  int64
	walSyncs  int64
	writeDur  []time.Duration // WAL WriteAt calls
	syncDur   []time.Duration // WAL Sync calls
}

func (r *ioRecorder) write(wal bool, n int, d time.Duration) {
	if !wal {
		return
	}
	r.mu.Lock()
	r.walWrites++
	r.walBytes += int64(n)
	r.writeDur = append(r.writeDur, d)
	r.mu.Unlock()
}

func (r *ioRecorder) sync(wal bool, d time.Duration) {
	if !wal {
		return
	}
	r.mu.Lock()
	r.walSyncs++
	r.syncDur = append(r.syncDur, d)
	r.mu.Unlock()
}

// ioSnapshot is a copy of the recorder's state.
type ioSnapshot struct {
	WALWrites, WALBytes, WALSyncs int64
	WriteDur, SyncDur             []time.Duration
}

func (r *ioRecorder) snapshot() ioSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ioSnapshot{
		WALWrites: r.walWrites, WALBytes: r.walBytes, WALSyncs: r.walSyncs,
		WriteDur: append([]time.Duration(nil), r.writeDur...),
		SyncDur:  append([]time.Duration(nil), r.syncDur...),
	}
}

// timedFS is a pager.FS whose files time WriteAt and Sync. It is passed
// as DurableOptions.FS, so it sees exactly the I/O the WAL and the
// checkpoints issue. WAL segments are the files named <prefix>.wal.<seq>.
type timedFS struct {
	pager.FS
	rec *ioRecorder
}

func (f timedFS) wrap(name string, h pager.File, err error) (pager.File, error) {
	if err != nil {
		return h, err
	}
	return timedFile{File: h, wal: strings.Contains(name, ".wal."), rec: f.rec}, nil
}

// Create implements pager.FS.
func (f timedFS) Create(name string) (pager.File, error) {
	h, err := f.FS.Create(name)
	return f.wrap(name, h, err)
}

// Open implements pager.FS.
func (f timedFS) Open(name string) (pager.File, error) {
	h, err := f.FS.Open(name)
	return f.wrap(name, h, err)
}

type timedFile struct {
	pager.File
	wal bool
	rec *ioRecorder
}

// WriteAt implements pager.File.
func (f timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.rec.write(f.wal, n, time.Since(t0))
	return n, err
}

// Sync implements pager.File.
func (f timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.rec.sync(f.wal, time.Since(t0))
	return err
}
