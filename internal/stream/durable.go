package stream

// Durable mode: per-shard write-ahead logging plus shard-engine
// checkpoints, giving the streaming engine a warm restart path.
//
// Layout on the pager.FS (one flat namespace per engine):
//
//	MANIFEST                     engine identity: shard count, dim, core,
//	                             metric, threshold kind (CRC-framed)
//	shard-<i>.ckpt               core.Engine checkpoint + the WAL sequence
//	                             number it covers (tmp+sync+rename, so a
//	                             crash mid-checkpoint leaves the old one)
//	shard-<i>.wal.<firstSeq>     WAL segments (pager.WAL framing)
//
// Write path: each insert batch is appended to the owning shard's WAL
// on the shard worker goroutine *before* it is applied to the tree
// (write-ahead), so the log always covers the in-memory state. Record
// durability follows WALOptions.SyncEvery; Checkpoint and Close are
// full durability barriers.
//
// Automatic checkpoints: a shard checkpoints itself, inline on its
// worker right after the batch that crosses the bound, once its WAL on
// disk reaches max(SegmentBytes, 4 × its last checkpoint's size). The
// checkpoint rotates a non-empty active segment first, so truncation
// deletes every closed segment and the store keeps only the manifest,
// the checkpoints and each shard's post-checkpoint tail. Replay is then
// bounded by the tree's size, not the engine's uptime, and checkpoint
// writes stay at most a quarter of the WAL bytes once a tree's
// checkpoint outgrows a quarter segment. A failed attempt surfaces
// through Err, keeps the previous checkpoint and every segment, and is
// retried one interval later.
//
// Recovery (Open with a DurableOptions whose FS holds a manifest): each
// shard resumes its engine from shard-<i>.ckpt when present, then
// replays WAL records with sequence numbers beyond the checkpoint's.
// Torn WAL tails are truncated by the prefix rule in pager.OpenWAL;
// a torn checkpoint cannot exist (rename is atomic), so a corrupt one
// is a hard error rather than silently dropped state.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/pager"
	"birch/internal/vec"
)

// DurableOptions configures the WAL + checkpoint layer. Zero-valued
// fields take the pager.WALOptions defaults.
type DurableOptions struct {
	// FS is the backing store (pager.DirFS for a real directory,
	// faultfs.Disk in the crash battery). Required.
	FS pager.FS
	// SegmentBytes is the WAL segment rotation size (default 1 MiB). It
	// is also the smallest automatic checkpoint interval: a shard
	// checkpoints once its WAL reaches max(SegmentBytes, 4 × its last
	// checkpoint's size).
	SegmentBytes int
	// SyncEvery syncs a shard's WAL after every SyncEvery batches; 1 (the
	// most durable) syncs each batch, 0 only syncs at rotation and at
	// checkpoints: automatic ones, Checkpoint and Close. A crash then
	// keeps everything up to the last checkpoint plus any synced tail.
	SyncEvery int
}

// RecoveryStats reports what Open restored from a durable store.
type RecoveryStats struct {
	// Recovered is true when an existing manifest was found (warm
	// restart), false when the store was initialized fresh.
	Recovered bool
	// Points is the total point mass restored across all shards
	// (checkpoints plus WAL replay).
	Points int64
	// ReplayedRecords / ReplayedPoints count WAL records (insert
	// batches) re-applied beyond the shard checkpoints.
	ReplayedRecords int64
	ReplayedPoints  int64
	// TornTails counts shards whose WAL ended in a torn frame that
	// recovery truncated.
	TornTails int
	// Shards holds the per-shard breakdown.
	Shards []ShardRecovery
}

// ShardRecovery is one shard's recovery breakdown.
type ShardRecovery struct {
	Shard int
	// CheckpointPoints is the point mass restored from the shard
	// checkpoint (0 if none existed).
	CheckpointPoints int64
	// CheckpointSeq is the WAL sequence number the checkpoint covers.
	CheckpointSeq uint64
	// ReplayedRecords / ReplayedPoints count the WAL records applied on
	// top of the checkpoint.
	ReplayedRecords int64
	ReplayedPoints  int64
	// LastSeq is the shard's WAL position after recovery.
	LastSeq uint64
	// Torn is true when the shard's WAL tail was torn and truncated.
	Torn bool
}

// durableState is the engine-level handle on the durable store.
type durableState struct {
	fs     pager.FS
	walOpt pager.WALOptions
}

// ckptInterval is how many WAL bytes a shard whose last checkpoint was
// ckptBytes long appends before it checkpoints again.
func (ds *durableState) ckptInterval(ckptBytes int64) int64 {
	seg := int64(ds.walOpt.SegmentBytes)
	if seg <= 0 {
		seg = pager.DefaultSegmentBytes
	}
	return max(seg, 4*ckptBytes)
}

var manifestMagic = [8]byte{'B', 'I', 'R', 'C', 'H', 'M', 'F', '1'}

const manifestName = "MANIFEST"

// shardCkptMagic frames a shard checkpoint header, version 1.
var shardCkptMagic = [8]byte{'B', 'I', 'R', 'C', 'H', 'S', 'C', '1'}

// fileWriter adapts a pager.File to io.Writer with an explicit offset.
type fileWriter struct {
	f   pager.File
	off int64
}

func (w *fileWriter) Write(p []byte) (int, error) {
	n, err := w.f.WriteAt(p, w.off)
	w.off += int64(n)
	return n, err
}

// Open builds and starts a streaming engine like New, optionally backed
// by a durable store. With dur == nil it is exactly New. With a durable
// store, Open either initializes it (fresh manifest) or warm-restarts
// from it: shard checkpoints are resumed, WAL tails replayed, and the
// returned RecoveryStats describes what was restored.
//
// opts.Shards must match the store's manifest on reopen; passing 0
// adopts the manifest's shard count (the on-disk layout is per-shard,
// so the fan-out is part of the store's identity).
func Open(cfg core.Config, opts Options, dur *DurableOptions) (*Engine, *RecoveryStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if opts.MailboxDepth <= 0 {
		opts.MailboxDepth = defaultMailboxDepth
	}

	rec := &RecoveryStats{}
	var ds *durableState
	if dur != nil {
		if dur.FS == nil {
			return nil, nil, errors.New("stream: DurableOptions.FS is required")
		}
		ds = &durableState{
			fs: dur.FS,
			walOpt: pager.WALOptions{
				SegmentBytes: dur.SegmentBytes,
				SyncEvery:    dur.SyncEvery,
			},
		}
		manShards, found, err := readManifest(ds.fs, cfg)
		if err != nil {
			return nil, nil, err
		}
		rec.Recovered = found
		if found {
			if opts.Shards == 0 {
				opts.Shards = manShards
			} else if opts.Shards != manShards {
				return nil, nil, fmt.Errorf("stream: store has %d shards, options ask for %d — the per-shard layout fixes the fan-out",
					manShards, opts.Shards)
			}
		}
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if ds != nil && !rec.Recovered {
		if err := writeManifest(ds.fs, cfg, opts.Shards); err != nil {
			return nil, nil, err
		}
	}

	shardCfg := shardConfig(cfg, opts.Shards)
	e := &Engine{
		cfg:    cfg,
		opts:   opts,
		dur:    ds,
		quit:   make(chan struct{}),
		shards: make([]*shard, opts.Shards),
	}
	for i := range e.shards {
		s := &shard{id: i, mail: make(chan op, opts.MailboxDepth)}
		if ds == nil {
			eng, err := core.NewEngine(shardCfg)
			if err != nil {
				return nil, nil, err
			}
			s.eng = eng
		} else {
			sr, err := recoverShard(ds, i, shardCfg, s)
			if err != nil {
				return nil, nil, err
			}
			rec.Shards = append(rec.Shards, sr)
			rec.ReplayedRecords += sr.ReplayedRecords
			rec.ReplayedPoints += sr.ReplayedPoints
			if sr.Torn {
				rec.TornTails++
			}
		}
		rec.Points += s.eng.Tree().Points()
		e.shards[i] = s
	}
	e.inserted.Store(rec.Points)
	// A warm restart serves its recovered state immediately: publish a
	// snapshot of the restored shards before any worker starts (they are
	// quiescent here), so Snapshot/Classify never report nothing-published
	// behind data the store already holds. A fresh store keeps the
	// volatile path's nil-until-first-publish contract.
	if rec.Recovered {
		reports := make([]shardReport, len(e.shards))
		for i, s := range e.shards {
			reports[i] = reportShard(s)
		}
		e.publish(reports)
	}
	for _, s := range e.shards {
		e.wg.Add(1)
		go e.runShard(s)
	}
	if opts.CompactInterval > 0 {
		e.compactWG.Add(1)
		go e.runCompactor()
	}
	return e, rec, nil
}

// ShardEngineConfig returns the configuration one shard engine of a
// W-shard deployment runs with: an equal memory slice and every
// mass-discarding path disabled (exactly what New derives internally).
// It is exported for the network layer: a birchd shard daemon that is
// one of W coordinator peers must run its engine with
// ShardEngineConfig(cfg, W) for the coordinator's wire-level CF merge to
// be bit-identical to a single in-process W-shard engine.
func ShardEngineConfig(cfg core.Config, shards int) core.Config {
	return shardConfig(cfg, shards)
}

// shardConfig derives the per-shard engine configuration New documents:
// an equal memory slice and every mass-discarding path disabled.
func shardConfig(cfg core.Config, shards int) core.Config {
	shardCfg := cfg
	shardCfg.Memory = cfg.Memory / shards
	if shardCfg.Memory < cfg.PageSize {
		shardCfg.Memory = cfg.PageSize
	}
	shardCfg.Refine = false
	shardCfg.Phase2 = false
	shardCfg.OutlierHandling = false
	shardCfg.DelaySplit = false
	return shardCfg
}

func shardCkptName(i int) string  { return fmt.Sprintf("shard-%d.ckpt", i) }
func shardWALPrefix(i int) string { return fmt.Sprintf("shard-%d", i) }

// recoverShard restores shard i's engine (checkpoint, then WAL replay)
// and leaves s.eng and s.wal positioned for writing.
func recoverShard(ds *durableState, i int, shardCfg core.Config, s *shard) (ShardRecovery, error) {
	sr := ShardRecovery{Shard: i}
	names, err := ds.fs.List()
	if err != nil {
		return sr, fmt.Errorf("stream: shard %d: list store: %w", i, err)
	}
	haveCkpt := false
	for _, n := range names {
		if n == shardCkptName(i) {
			haveCkpt = true
			break
		}
	}
	if haveCkpt {
		eng, seq, size, err := readShardCheckpoint(ds.fs, i, shardCfg)
		if err != nil {
			return sr, err
		}
		s.eng = eng
		s.ckptBytes = size
		sr.CheckpointSeq = seq
		sr.CheckpointPoints = eng.Tree().Points()
	} else {
		eng, err := core.NewEngine(shardCfg)
		if err != nil {
			return sr, err
		}
		s.eng = eng
	}

	dim := shardCfg.Dim
	pt := vec.New(dim)
	// Covered restarts a log the checkpoint wholly covers past its
	// sequence number, so new records are never mistaken for covered ones.
	walOpt := ds.walOpt
	walOpt.Covered = sr.CheckpointSeq
	wal, rstats, err := pager.OpenWAL(ds.fs, shardWALPrefix(i), walOpt,
		func(seq uint64, payload []byte) error {
			if seq <= sr.CheckpointSeq {
				// Checkpoint already covers this record; segment-granular
				// truncation legitimately leaves such records behind.
				return nil
			}
			count, err := decodeBatchHeader(payload, dim)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			body := payload[4:]
			for p := 0; p < count; p++ {
				for j := 0; j < dim; j++ {
					pt[j] = math.Float64frombits(
						binary.LittleEndian.Uint64(body[(p*dim+j)*8:]))
				}
				if err := s.eng.Add(pt); err != nil {
					return fmt.Errorf("shard %d: replay insert: %w", i, err)
				}
			}
			sr.ReplayedRecords++
			sr.ReplayedPoints += int64(count)
			return nil
		})
	if err != nil {
		return sr, fmt.Errorf("stream: shard %d: %w", i, err)
	}
	s.wal = wal
	// The replayed tail counts toward the first automatic checkpoint.
	s.ckptAt = ds.ckptInterval(s.ckptBytes)
	sr.LastSeq = wal.LastSeq()
	sr.Torn = rstats.Torn
	return sr, nil
}

// readShardCheckpoint loads shard-<i>.ckpt: a header section holding
// the covered WAL sequence number, then the engine checkpoint, read
// through one cf.Reader. It also returns the file's size, which sets the
// shard's automatic checkpoint interval.
func readShardCheckpoint(fs pager.FS, i int, shardCfg core.Config) (*core.Engine, uint64, int64, error) {
	name := shardCkptName(i)
	f, err := fs.Open(name)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("stream: open %s: %w", name, err)
	}
	eng, seq, size, err := resumeShardFile(f, shardCfg)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("stream: %s: %w", name, err)
	}
	return eng, seq, size, nil
}

// resumeShardFile is readShardCheckpoint's body on the open file.
func resumeShardFile(f pager.File, shardCfg core.Config) (*core.Engine, uint64, int64, error) {
	size, err := f.Size()
	if err != nil {
		return nil, 0, 0, err
	}
	d := cf.NewReader(io.NewSectionReader(f, 0, size))
	var magic [8]byte
	d.Bytes(magic[:])
	seq := d.U64()
	if err := d.Check(); err != nil {
		return nil, 0, 0, fmt.Errorf("header: %w", err)
	}
	if magic != shardCkptMagic {
		return nil, 0, 0, errors.New("bad magic")
	}
	eng, err := core.ResumeEngine(d, shardCfg)
	return eng, seq, size, err
}

// checkpointShard runs on the shard owner (worker loop, or the closing
// goroutine after the workers have exited): rotate (and so sync) the
// WAL, write the engine checkpoint to a temp file, sync it, rename it
// into place, then delete the WAL segments it covers. The
// rename-after-sync order is what makes a crash at any byte leave
// either the old or the new checkpoint intact — the crash battery kills
// inside this sequence too. Whatever the outcome, the next automatic
// checkpoint is due one interval after the WAL's current size.
func (e *Engine) checkpointShard(s *shard) error {
	if s.wal == nil {
		return nil
	}
	size, err := e.writeShardCheckpoint(s)
	if err == nil {
		s.ckptBytes = size
		s.checkpoints++
	}
	s.ckptAt = s.wal.Bytes() + e.dur.ckptInterval(s.ckptBytes)
	return err
}

// writeShardCheckpoint is checkpointShard's durable sequence. It returns
// the size of the checkpoint it installed.
func (e *Engine) writeShardCheckpoint(s *shard) (int64, error) {
	// Rotating puts every record the checkpoint covers in a closed
	// segment, which TruncateThrough below can delete.
	if err := s.wal.Rotate(); err != nil {
		return 0, fmt.Errorf("stream: shard %d: %w", s.id, err)
	}
	seq := s.wal.LastSeq()
	tmp := shardCkptName(s.id) + ".tmp"
	f, err := e.dur.fs.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("stream: shard %d: create checkpoint: %w", s.id, err)
	}
	w := &fileWriter{f: f}
	cw := cf.NewWriter(w)
	cw.Bytes(shardCkptMagic[:])
	cw.U64(seq)
	cw.Seal()
	err = s.eng.WriteCheckpoint(cw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("stream: shard %d: write checkpoint: %w", s.id, err)
	}
	if err := e.dur.fs.Rename(tmp, shardCkptName(s.id)); err != nil {
		return 0, fmt.Errorf("stream: shard %d: install checkpoint: %w", s.id, err)
	}
	if err := s.wal.TruncateThrough(seq); err != nil {
		return 0, fmt.Errorf("stream: shard %d: %w", s.id, err)
	}
	return w.off, nil
}

// Checkpoint is the durability barrier: every shard syncs its WAL,
// writes a fresh engine checkpoint, and reclaims covered WAL segments,
// as an automatic checkpoint does. When it returns nil, every point
// accepted before the call survives a crash. Only valid on engines
// opened with a durable store.
func (e *Engine) Checkpoint(ctx context.Context) error {
	if e.dur == nil {
		return errors.New("stream: Checkpoint requires a durable store (use Open)")
	}
	replies := make(chan error, len(e.shards))
	for _, s := range e.shards {
		if err := e.send(ctx, s, op{ckpt: replies}); err != nil {
			return err
		}
	}
	var first error
	for range e.shards {
		select {
		case err := <-replies:
			if err != nil && first == nil {
				first = err
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-e.quit:
			return ErrClosed
		}
	}
	return first
}

// closeDurable checkpoints every shard and closes the WALs. It runs on
// the closing goroutine after wg.Wait, so shard state is quiesced.
func (e *Engine) closeDurable() {
	if e.dur == nil {
		return
	}
	for _, s := range e.shards {
		if err := e.checkpointShard(s); err != nil {
			e.setErr(err)
		}
		if s.wal != nil {
			if err := s.wal.Close(); err != nil {
				e.setErr(fmt.Errorf("stream: shard %d: %w", s.id, err))
			}
		}
	}
}

// encodeBatch appends the WAL record for one insert batch to dst:
// u32 count followed by count·dim float64 coordinates.
func encodeBatch(dst []byte, pts []vec.Vector) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(pts)))
	dst = append(dst, b[:4]...)
	for _, p := range pts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			dst = append(dst, b[:]...)
		}
	}
	return dst
}

// encodeSparseBatch appends the WAL record for one sparse insert batch
// to dst in the same dense record format encodeBatch produces: each
// point is densified through scratch (len = dim) before its coordinates
// are written. Replay therefore needs no sparse awareness, and the
// replayed dense inserts rebuild a tree bit-identical to the live
// sparse-inserted one (the sparse path's bit-identity contract).
func encodeSparseBatch(dst []byte, sps []vec.Sparse, scratch vec.Vector) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(sps)))
	dst = append(dst, b[:4]...)
	for _, sp := range sps {
		sp.DenseInto(scratch)
		for _, v := range scratch {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			dst = append(dst, b[:]...)
		}
	}
	return dst
}

// decodeBatchHeader validates a batch record's framing against dim and
// returns the point count.
func decodeBatchHeader(payload []byte, dim int) (int, error) {
	if len(payload) < 4 {
		return 0, errors.New("stream: WAL record too short")
	}
	count := int(binary.LittleEndian.Uint32(payload))
	if count < 0 || len(payload) != 4+count*dim*8 {
		return 0, fmt.Errorf("stream: WAL record length %d inconsistent with count %d × dim %d",
			len(payload), count, dim)
	}
	return count, nil
}

// writeManifest initializes a fresh durable store's identity record,
// one 24-byte cf codec section.
func writeManifest(fs pager.FS, cfg core.Config, shards int) error {
	tmp := manifestName + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("stream: create manifest: %w", err)
	}
	cw := cf.NewWriter(&fileWriter{f: f})
	cw.Bytes(manifestMagic[:])
	cw.U32(uint32(shards))
	cw.U32(uint32(cfg.Dim))
	cw.U8(byte(cfg.Core))
	cw.U8(byte(cfg.Metric))
	cw.U8(byte(cfg.ThresholdKind))
	cw.U8(0) // reserved
	cw.Seal()
	err = cw.Flush()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("stream: write manifest: %w", err)
	}
	if err := fs.Rename(tmp, manifestName); err != nil {
		return fmt.Errorf("stream: install manifest: %w", err)
	}
	return nil
}

// readManifest returns the store's shard count and whether a manifest
// exists, validating identity against cfg.
func readManifest(fs pager.FS, cfg core.Config) (int, bool, error) {
	names, err := fs.List()
	if err != nil {
		return 0, false, fmt.Errorf("stream: list store: %w", err)
	}
	found := false
	for _, n := range names {
		if n == manifestName {
			found = true
			break
		}
	}
	if !found {
		return 0, false, nil
	}
	f, err := fs.Open(manifestName)
	if err != nil {
		return 0, false, fmt.Errorf("stream: open manifest: %w", err)
	}
	d := cf.NewReader(io.NewSectionReader(f, 0, 24))
	var magic [8]byte
	d.Bytes(magic[:])
	shards, dim := int(d.U32()), int(d.U32())
	coreB, metricB, tkindB := d.U8(), d.U8(), d.U8()
	d.U8() // reserved
	err = d.Check()
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return 0, false, fmt.Errorf("stream: read manifest: %w", err)
	}
	if magic != manifestMagic {
		return 0, false, errors.New("stream: manifest: bad magic")
	}
	if shards <= 0 || shards > 1<<16 {
		return 0, false, fmt.Errorf("stream: manifest: implausible shard count %d", shards)
	}
	if dim != cfg.Dim {
		return 0, false, fmt.Errorf("stream: store dimension %d, config dimension %d", dim, cfg.Dim)
	}
	if coreB != byte(cfg.Core) {
		return 0, false, fmt.Errorf("stream: store core %d, config core %d", coreB, byte(cfg.Core))
	}
	if metricB != byte(cfg.Metric) {
		return 0, false, fmt.Errorf("stream: store metric %d, config metric %d", metricB, byte(cfg.Metric))
	}
	if tkindB != byte(cfg.ThresholdKind) {
		return 0, false, fmt.Errorf("stream: store threshold kind %d, config threshold kind %d", tkindB, byte(cfg.ThresholdKind))
	}
	return shards, true, nil
}
