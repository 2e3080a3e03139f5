package birch

// Durable trees: full-fidelity checkpoints and warm restarts.
//
// Two persistence tiers exist at the root API. WriteSnapshot
// (snapshot.go) stores the *summary* — leaf CFs plus threshold — which
// is tiny and portable but forgets the engine's trajectory: a resumed
// snapshot re-inserts the summaries into a fresh tree. WriteCheckpoint
// stores the *engine* — the exact CF tree (structure, leaf chain, page
// accounting), the threshold-growth history, and the outlier disk
// buffer — so the resumed Clusterer's future behaviour is bit-identical
// to the original's: same absorptions, same rebuilds, same final
// outlier resolution.
//
// OpenDurable extends this to the concurrent streaming engine: each
// shard persists an engine checkpoint plus a write-ahead log on an FS,
// checkpointing itself whenever its log outgrows the bound described at
// OpenDurable, and reopening the same store warm-restarts the engine,
// replaying whatever the log preserved beyond the last checkpoint. The
// crash battery in internal/stream proves the recovery guarantees;
// DESIGN.md §14 states them precisely.

import (
	"errors"
	"io"

	"birch/internal/core"
	"birch/internal/pager"
	"birch/internal/stream"
)

// FS is the flat-namespace file store durable engines write through.
// DirFS maps it onto a real directory; tests substitute fault-injecting
// implementations to prove crash safety.
type FS = pager.FS

// DirFS returns an FS backed by the files directly inside dir (which
// must already exist). Subdirectories are not used.
func DirFS(dir string) FS { return pager.DirFS(dir) }

// DurableOptions configures the checkpoint + write-ahead-log layer of a
// durable StreamClusterer: the backing FS, the WAL segment size, and
// the fsync cadence.
type DurableOptions = stream.DurableOptions

// RecoveryStats reports what OpenDurable restored: checkpointed and
// WAL-replayed point mass, per shard and in total.
type RecoveryStats = stream.RecoveryStats

// ShardRecovery is one shard's slice of RecoveryStats.
type ShardRecovery = stream.ShardRecovery

// OpenDurable creates (or warm-restarts) a concurrent streaming engine
// backed by a durable store. On a fresh store it initializes the layout
// and behaves like NewStreamClusterer with write-ahead logging on; on a
// store holding a previous run's state it restores every shard from its
// checkpoint, replays the WAL tail, and reports what survived in
// RecoveryStats.
//
// Each shard checkpoints itself, between two batches, once its WAL on
// disk reaches max(SegmentBytes, 4 × its last checkpoint's size), and
// then deletes the WAL segments the checkpoint covers. The log a crash
// leaves to replay is therefore bounded by the tree's size, not by how
// long the engine has run, and checkpoint writes stay within a quarter
// of the WAL bytes once trees outgrow a quarter segment. A failed
// automatic checkpoint is reported by Err and retried one interval
// later. Call Checkpoint on the returned engine for an explicit
// durability barrier; Close always takes a final one.
//
//	s, rec, err := birch.OpenDurable(cfg, birch.StreamOptions{Shards: 4},
//	    birch.DurableOptions{FS: birch.DirFS(dir)})
//	if rec.Recovered {
//	    log.Printf("warm restart: %d points back", rec.Points)
//	}
func OpenDurable(cfg Config, opts StreamOptions, dur DurableOptions) (*StreamClusterer, *RecoveryStats, error) {
	return stream.Open(cfg, opts, &dur)
}

// WriteCheckpoint serializes the Clusterer's complete Phase 1 engine
// state. Unlike WriteSnapshot it preserves the engine bit-for-bit —
// tree structure, insertion-order leaf chain, threshold history, page
// and outlier-disk accounting — so ResumeCheckpoint continues exactly
// where this Clusterer stopped. Refine must be off (the buffered points
// Phase 4 would re-scan are not checkpointed), and a finished Clusterer
// has nothing left to resume.
func (c *Clusterer) WriteCheckpoint(w io.Writer) error {
	if c.done {
		return errors.New("birch: WriteCheckpoint after Finish")
	}
	if c.cfg.Refine {
		return errors.New("birch: WriteCheckpoint requires Refine=false (buffered refinement points are not checkpointed)")
	}
	return c.eng.WriteCheckpoint(w)
}

// ResumeCheckpoint reconstructs a Clusterer from a WriteCheckpoint
// stream. cfg must carry the same identity the checkpoint was written
// under (Dim, Core, Metric, ThresholdKind and the memory shape); like
// ResumeSnapshot it requires Refine=false. The resumed Clusterer's
// future inserts, rebuilds and Finish are bit-identical to the
// original's.
func ResumeCheckpoint(r io.Reader, cfg Config) (*Clusterer, error) {
	if cfg.Refine {
		return nil, errors.New("birch: ResumeCheckpoint requires Refine=false")
	}
	eng, err := core.ResumeEngine(r, cfg)
	if err != nil {
		return nil, err
	}
	return &Clusterer{cfg: cfg, eng: eng}, nil
}
