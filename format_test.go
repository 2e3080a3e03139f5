package birch

// Format fixtures: testdata/ pins the on-disk formats with committed
// records — one engine checkpoint per CF core with entries on the
// outlier disk, one durable store's MANIFEST and shard-0.ckpt, and one
// v2 snapshot. The inputs that produced them are rebuilt here, so the
// tests hold both directions: today's writers emit the same bytes, and
// the committed bytes resume bit-identically.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"birch/internal/cf"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixtureClusterer streams the first 1,050 points of a three-blob stream
// under checkpointConfig: enough to force rebuilds and to leave entries
// on the outlier disk.
func fixtureClusterer(t *testing.T, kind CoreKind) *Clusterer {
	t.Helper()
	c, err := New(checkpointConfig(kind, cf.D2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(29, 3, 700, 50, 2)[:1050] {
		if err := c.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.eng.Outliers()) == 0 {
		t.Fatal("no entries on the outlier disk; the fixture would not pin them")
	}
	return c
}

func TestFixtureEngineCheckpoints(t *testing.T) {
	for _, kind := range []CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		t.Run(kind.String(), func(t *testing.T) {
			want := readFixture(t, "engine-"+kind.String()+".ckpt")
			c := fixtureClusterer(t, kind)
			var img bytes.Buffer
			if err := c.WriteCheckpoint(&img); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img.Bytes(), want) {
				t.Fatalf("checkpoint differs from the fixture (%d vs %d bytes)", img.Len(), len(want))
			}
			r, err := ResumeCheckpoint(bytes.NewReader(want), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			clusterersEqualBitwise(t, "fixture resume", c, r)
			img.Reset()
			if err := r.WriteCheckpoint(&img); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img.Bytes(), want) {
				t.Fatal("resumed engine checkpoints to different bytes")
			}
		})
	}
}

// writeFixtureStore ingests 600 points in batches of 50 into a fresh
// one-shard durable store in dir and closes it.
func writeFixtureStore(t *testing.T, dir string, opts StreamOptions) *RecoveryStats {
	t.Helper()
	s, rec, err := OpenDurable(checkpointConfig(cf.CoreClassic, cf.D2), opts, DurableOptions{FS: DirFS(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered {
		pts := blobPoints(41, 3, 200, 50, 2)
		for i := 0; i < len(pts); i += 50 {
			if err := s.InsertBatch(context.Background(), pts[i:i+50]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestFixtureDurableStore(t *testing.T) {
	files := []string{"MANIFEST", "shard-0.ckpt"}
	sameFiles := func(dir, label string) {
		t.Helper()
		for _, name := range files {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if want := readFixture(t, filepath.Join("store", name)); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s differs from the fixture (%d vs %d bytes)", label, name, len(got), len(want))
			}
		}
	}
	fresh := t.TempDir()
	writeFixtureStore(t, fresh, StreamOptions{Shards: 1})
	sameFiles(fresh, "fresh store")

	// A copy of the fixture store reopens with every point and no replay,
	// and the checkpoint its Close takes reproduces the fixture's bytes.
	dir := t.TempDir()
	for _, name := range files {
		if err := os.WriteFile(filepath.Join(dir, name), readFixture(t, filepath.Join("store", name)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec := writeFixtureStore(t, dir, StreamOptions{})
	if !rec.Recovered || rec.Points != 600 || rec.ReplayedRecords != 0 {
		t.Fatalf("fixture store reopened as %+v, want 600 recovered points and no replay", rec)
	}
	sameFiles(dir, "reopened store")
}

// TestFixtureSnapshotV2Loads: a v2 snapshot holds the writer's leaves but
// not its outlier disk, and resuming it re-inserts those leaves into a
// fresh tree at the writer's threshold.
func TestFixtureSnapshotV2Loads(t *testing.T) {
	cfg := checkpointConfig(cf.CoreClassic, cf.D2)
	got, err := ResumeSnapshot(bytes.NewReader(readFixture(t, "snapshot-v2.bin")), cfg)
	if err != nil {
		t.Fatalf("v2 fixture rejected: %v", err)
	}
	w := fixtureClusterer(t, cf.CoreClassic)
	ref := cfg
	if th := w.Stats().Threshold; th > ref.InitialThreshold {
		ref.InitialThreshold = th
	}
	want, err := New(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range w.Subclusters() {
		if err := want.InsertCF(sub); err != nil {
			t.Fatal(err)
		}
	}
	clusterersEqualBitwise(t, "v2 fixture", want, got)
}
