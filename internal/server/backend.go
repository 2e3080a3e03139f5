package server

import (
	"context"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/stream"
	"birch/internal/vec"
)

// Backend is the clustering engine a Server fronts. Two implementations
// exist: EngineBackend wraps an in-process stream.Engine (a shard
// daemon, or a standalone single-box deployment), and Coordinator fans
// out to remote birchd shard daemons and serves their merged summary.
// The HTTP layer and the micro-batching admission layer are identical
// over both, which is what lets a coordinator expose the same API it
// consumes from its shards.
type Backend interface {
	// Dim is the data dimensionality every point must match.
	Dim() int
	// CoreKind is the CF statistic backend the engine runs.
	CoreKind() cf.CoreKind
	// InsertBatch folds a batch of points into the engine. The batch is
	// all-or-nothing, and a nil return means the mass is owned by the
	// engine (in a shard tree or its mailbox, which Close drains). pts
	// alias the server's pooled request buffers, which are reused once
	// the call returns, so a backend that keeps points copies them.
	InsertBatch(ctx context.Context, pts []vec.Vector) error
	// InsertSparseBatch is the sparse-point twin of InsertBatch, carrying
	// CSR-form points down the engine's sparse fast path. Same
	// all-or-nothing ownership and no-retention contract.
	InsertSparseBatch(ctx context.Context, sps []vec.Sparse) error
	// Snapshot is the current immutable serving view (nil before the
	// first publication).
	Snapshot() *stream.Snapshot
	// Stats reports the engine gauges.
	Stats() stream.Stats
	// Summaries returns the per-shard leaf-CF summaries, in shard order —
	// the payload of the wire-level CF merge.
	Summaries(ctx context.Context) ([]core.Summary, error)
	// Flush forces every accepted point into the serving state and
	// publishes a fresh snapshot.
	Flush(ctx context.Context) error
	// Close drains and stops the backend. Read-side calls stay valid.
	Close() error
}

// EngineBackend adapts a stream.Engine (plus the config it was built
// with) to the Backend interface.
type EngineBackend struct {
	Eng *stream.Engine
	Cfg core.Config
}

// Dim implements Backend.
func (b EngineBackend) Dim() int { return b.Cfg.Dim }

// CoreKind implements Backend.
func (b EngineBackend) CoreKind() cf.CoreKind { return b.Cfg.Core }

// InsertBatch implements Backend.
func (b EngineBackend) InsertBatch(ctx context.Context, pts []vec.Vector) error {
	return b.Eng.InsertBatch(ctx, pts)
}

// InsertSparseBatch implements Backend.
func (b EngineBackend) InsertSparseBatch(ctx context.Context, sps []vec.Sparse) error {
	return b.Eng.InsertSparseBatch(ctx, sps)
}

// Snapshot implements Backend.
func (b EngineBackend) Snapshot() *stream.Snapshot { return b.Eng.Snapshot() }

// Stats implements Backend.
func (b EngineBackend) Stats() stream.Stats { return b.Eng.Stats() }

// Summaries implements Backend.
func (b EngineBackend) Summaries(ctx context.Context) ([]core.Summary, error) {
	return b.Eng.ShardSummaries(ctx)
}

// Flush implements Backend.
func (b EngineBackend) Flush(ctx context.Context) error { return b.Eng.Flush(ctx) }

// Close implements Backend.
func (b EngineBackend) Close() error { return b.Eng.Close() }
