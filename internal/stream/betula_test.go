package stream

import (
	"context"
	"math"
	"testing"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/vec"
)

// TestStreamBetulaConservation: the streaming engine inherits the CF-core
// backend from core.Config — shard trees, the compactor's merged tree
// and the published snapshot all run BETULA — and the BCF additivity law
// survives sharded insertion, compaction and snapshot publication: total
// N is exact and the N-weighted mean of the subcluster means reproduces
// the stream mean.
func TestStreamBetulaConservation(t *testing.T) {
	const n = 8000
	pts := latticePoints(n)
	cfg := core.DefaultConfig(2, 8)
	cfg.Refine = false
	cfg.Phase2 = false
	cfg.Core = cf.CoreBETULA

	streamMean := vec.New(cfg.Dim)
	for _, p := range pts {
		for d := range p {
			streamMean[d] += p[d]
		}
	}
	for d := range streamMean {
		streamMean[d] /= float64(n)
	}

	eng, err := New(cfg, Options{Shards: 4, MailboxDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < len(pts); i += 16 {
		hi := i + 16
		if hi > len(pts) {
			hi = len(pts)
		}
		if err := eng.InsertBatch(ctx, pts[i:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.Points != n {
		t.Fatalf("snapshot mass %d, want %d", snap.Points, n)
	}
	var mass int64
	weighted := vec.New(cfg.Dim)
	for i := range snap.Subclusters {
		c := &snap.Subclusters[i]
		if c.Kind() != cf.CoreBETULA {
			t.Fatalf("subcluster %d carries kind %v", i, c.Kind())
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("subcluster %d: %v", i, err)
		}
		mass += c.N
		for d := range c.LS {
			weighted[d] += float64(c.N) * c.LS[d]
		}
	}
	if mass != n {
		t.Fatalf("subcluster mass %d, want %d", mass, n)
	}
	for d := range weighted {
		got := weighted[d] / float64(mass)
		if math.Abs(got-streamMean[d]) > 1e-9*(1+math.Abs(streamMean[d])) {
			t.Fatalf("component %d: weighted mean %g, stream mean %g", d, got, streamMean[d])
		}
	}

	// The serving path works over the betula snapshot.
	if idx, _, ok := snap.Classify(pts[0]); !ok || idx < 0 || idx >= len(snap.Centroids) {
		t.Fatalf("Classify: idx=%d ok=%v", idx, ok)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Snapshot().Points; got != n {
		t.Fatalf("post-Close snapshot mass %d, want %d", got, n)
	}
}
