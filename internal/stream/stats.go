package stream

import "birch/internal/pager"

// ShardStats is the per-shard gauge set captured at report time on the
// shard's owner goroutine: tree shape (depth, nodes, leaf subclusters),
// threshold, rebuild and checkpoint counters, and the shard pager's I/O
// counters.
type ShardStats struct {
	Shard       int
	Points      int64   // data points folded into this shard's tree
	Subclusters int     // leaf CF entries
	Nodes       int     // tree nodes (== pages held)
	Height      int     // tree depth
	Threshold   float64 // current shard threshold T
	Rebuilds    int     // threshold-raising rebuilds this shard has run
	// Checkpoints counts the durable checkpoints this shard has completed,
	// automatic and explicit (always 0 without a durable store).
	Checkpoints int64
	IO          pager.Stats
}

// Stats is a point-in-time view of the whole engine. The shard gauges are
// taken from the most recent published snapshot; Inserted and Compactions
// are live atomics, so Inserted may run ahead of Published by however
// many points are still in flight in the mailboxes.
type Stats struct {
	Inserted    int64 // points accepted by Insert/InsertBatch so far
	Published   int64 // points covered by the current snapshot
	Generation  int64 // snapshot publication generation (0 = none yet)
	Compactions int64 // snapshots published over the engine's lifetime
	Clusters    int   // global clusters in the current snapshot
	Subclusters int   // merged leaf subclusters in the current snapshot

	// Serving-health gauges. SnapshotAgeTicks is how many compactor
	// periods have elapsed since the current snapshot was published: 0
	// while every tick republishes (or no compactor timer runs), and
	// climbing when compaction keeps failing or can't keep up — a server
	// reads it to tell how stale its serving view is. CompactorLagPoints
	// is Inserted − Published: the point mass accepted by writers but not
	// yet visible to readers (mailbox queues plus work since the last
	// publication).
	SnapshotAgeTicks   int64
	CompactorLagPoints int64

	Shards []ShardStats
}

// Stats returns the engine-wide gauges. Safe to call concurrently with
// writers and with Close; it never blocks on the ingest path.
func (e *Engine) Stats() Stats {
	st := Stats{
		Inserted:    e.inserted.Load(),
		Compactions: e.compactions.Load(),
	}
	if s := e.snap.Load(); s != nil {
		st.Published = s.Points
		st.Generation = s.Gen
		st.Clusters = len(s.Clusters)
		st.Subclusters = len(s.Subclusters)
		st.Shards = s.Shards
	}
	// ticks is read after pubTick so a publish racing this call can only
	// make the age smaller, never negative by more than a stale read;
	// clamp for the callers that export the gauge.
	pub := e.pubTick.Load()
	if age := e.ticks.Load() - pub; age > 0 {
		st.SnapshotAgeTicks = age
	}
	if lag := st.Inserted - st.Published; lag > 0 {
		st.CompactorLagPoints = lag
	}
	return st
}
