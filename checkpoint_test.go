package birch

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"birch/internal/cf"
	"birch/internal/faultfs"
	"birch/internal/pager"
)

// checkpointConfig forces rebuilds and outlier spills with a few hundred
// points so checkpoints carry every kind of engine state.
func checkpointConfig(kind CoreKind, metric Metric) Config {
	cfg := DefaultConfig(2, 3)
	cfg.Memory = 6 * 1024
	cfg.Refine = false
	cfg.Core = kind
	cfg.Metric = metric
	return cfg
}

// clusterersEqualBitwise asserts two Clusterers carry Float64bits-identical
// observable state: tree dump, subcluster CFs, and live stats.
func clusterersEqualBitwise(t *testing.T, label string, a, b *Clusterer) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", label, a.Stats(), b.Stats())
	}
	sa, sb := a.Subclusters(), b.Subclusters()
	if len(sa) != len(sb) {
		t.Fatalf("%s: subcluster counts differ: %d vs %d", label, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].N != sb[i].N || math.Float64bits(sa[i].SS) != math.Float64bits(sb[i].SS) {
			t.Fatalf("%s: subcluster %d differs", label, i)
		}
		for j := range sa[i].LS {
			if math.Float64bits(sa[i].LS[j]) != math.Float64bits(sb[i].LS[j]) {
				t.Fatalf("%s: subcluster %d LS[%d] differs", label, i, j)
			}
		}
	}
	var da, db strings.Builder
	if err := a.eng.Tree().Dump(&da); err != nil {
		t.Fatal(err)
	}
	if err := b.eng.Tree().Dump(&db); err != nil {
		t.Fatal(err)
	}
	if da.String() != db.String() {
		t.Fatalf("%s: tree dumps differ", label)
	}
	if a.eng.Pager().Stats() != b.eng.Pager().Stats() {
		t.Fatalf("%s: pager stats differ:\n%+v\n%+v",
			label, a.eng.Pager().Stats(), b.eng.Pager().Stats())
	}
	if a.eng.Pager().DiskUsed() != b.eng.Pager().DiskUsed() {
		t.Fatalf("%s: outlier disk accounting differs: %d vs %d",
			label, a.eng.Pager().DiskUsed(), b.eng.Pager().DiskUsed())
	}
}

// TestCheckpointRoundTripEveryMetricCore is the property battery: for
// every distance metric × CF core, a resumed Clusterer
// is Float64bits-identical to the original — immediately, after more
// streaming, and through Finish — and its v2 snapshots are byte-for-byte
// the snapshots the original would have written.
func TestCheckpointRoundTripEveryMetricCore(t *testing.T) {
	pts := blobPoints(29, 3, 700, 50, 2)
	for _, kind := range []CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		for _, metric := range []Metric{cf.D0, cf.D1, cf.D2, cf.D3, cf.D4, cf.DCos} {
			kind, metric := kind, metric
			t.Run(kind.String()+"/"+metric.String(), func(t *testing.T) {
				t.Parallel()
				cfg := checkpointConfig(kind, metric)
				c1, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				half := len(pts) / 2
				for _, p := range pts[:half] {
					if err := c1.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				if c1.eng.CounterStats().OutlierSpills == 0 {
					t.Fatal("config not under pressure: no outlier spills at checkpoint time")
				}

				var img bytes.Buffer
				if err := c1.WriteCheckpoint(&img); err != nil {
					t.Fatalf("WriteCheckpoint: %v", err)
				}
				c2, err := ResumeCheckpoint(bytes.NewReader(img.Bytes()), cfg)
				if err != nil {
					t.Fatalf("ResumeCheckpoint: %v", err)
				}
				clusterersEqualBitwise(t, "after resume", c1, c2)

				// Snapshot interop: the resumed engine writes the same v2
				// snapshot bytes the original does.
				var snap1, snap2 bytes.Buffer
				if err := c1.WriteSnapshot(&snap1); err != nil {
					t.Fatal(err)
				}
				if err := c2.WriteSnapshot(&snap2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
					t.Fatal("v2 snapshot bytes differ between original and resumed Clusterer")
				}

				// Continue both streams; every subsequent absorption,
				// rebuild and spill must match.
				for _, p := range pts[half:] {
					if err := c1.Insert(p); err != nil {
						t.Fatal(err)
					}
					if err := c2.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				clusterersEqualBitwise(t, "after continued stream", c1, c2)

				r1, err := c1.Finish()
				if err != nil {
					t.Fatal(err)
				}
				r2, err := c2.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if len(r1.Centroids) != len(r2.Centroids) {
					t.Fatalf("centroid counts differ: %d vs %d", len(r1.Centroids), len(r2.Centroids))
				}
				for i := range r1.Centroids {
					for j := range r1.Centroids[i] {
						if math.Float64bits(r1.Centroids[i][j]) != math.Float64bits(r2.Centroids[i][j]) {
							t.Fatalf("centroid %d[%d] differs", i, j)
						}
					}
				}
			})
		}
	}
}

func TestCheckpointCrossCoreRejected(t *testing.T) {
	pts := blobPoints(31, 3, 300, 50, 2)
	for _, kind := range []CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		cfg := checkpointConfig(kind, cf.D2)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if err := c.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		var img bytes.Buffer
		if err := c.WriteCheckpoint(&img); err != nil {
			t.Fatal(err)
		}
		other := cfg
		if kind == cf.CoreClassic {
			other.Core = cf.CoreBETULA
		} else {
			other.Core = cf.CoreClassic
		}
		if _, err := ResumeCheckpoint(bytes.NewReader(img.Bytes()), other); err == nil {
			t.Fatalf("%v checkpoint accepted under %v config", kind, other.Core)
		}
	}
}

func TestCheckpointRefineGated(t *testing.T) {
	cfg := DefaultConfig(2, 3) // Refine on by default
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteCheckpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteCheckpoint with Refine=true accepted")
	}
	if _, err := ResumeCheckpoint(bytes.NewReader(nil), cfg); err == nil {
		t.Fatal("ResumeCheckpoint with Refine=true accepted")
	}
}

// fsWriter adapts a pager.File to io.Writer for the fault tests below.
type fsWriter struct {
	f   pager.File
	off int64
}

func (w *fsWriter) Write(p []byte) (int, error) {
	n, err := w.f.WriteAt(p, w.off)
	w.off += int64(n)
	return n, err
}

// TestCheckpointOnFaultyDisk drives the root checkpoint path through the
// fault-injection disk: a torn write surfaces as a WriteCheckpoint
// error, an unsynced image is destroyed by a crash, and only a synced
// image resumes — with the outlier-disk accounting (the state satellite
// pager.WriteOutlier/ReadOutliers stats feed) intact after the reopen.
func TestCheckpointOnFaultyDisk(t *testing.T) {
	cfg := checkpointConfig(cf.CoreClassic, cf.D2)
	pts := blobPoints(37, 3, 700, 50, 2)
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:500] {
		if err := c1.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := c1.eng.Pager().Stats(); st.OutliersWritten == 0 {
		t.Fatal("no outliers written; disk-accounting assertions would be vacuous")
	}

	disk := faultfs.NewDisk()

	// Torn write: the checkpoint must report failure, not half-persist.
	f, err := disk.Create("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	disk.FailWriteAfter(128, nil)
	if err := c1.WriteCheckpoint(&fsWriter{f: f}); err == nil {
		t.Fatal("torn checkpoint write reported success")
	}
	disk.ClearFaults()
	_ = f.Close()

	// Unsynced image: a crash destroys it, and resuming from the durable
	// remains (a truncated prefix) must fail, never half-load.
	f, err = disk.Create("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.WriteCheckpoint(&fsWriter{f: f}); err != nil {
		t.Fatal(err)
	}
	disk.Crash()
	if n := disk.DurableLen("ckpt"); n > 0 {
		t.Fatalf("unsynced checkpoint bytes survived the crash: %d", n)
	}

	// Synced image: survives the crash and resumes with identical
	// outlier-disk accounting.
	f, err = disk.Create("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.WriteCheckpoint(&fsWriter{f: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	disk.Crash()
	f, err = disk.Open("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, size)
	if _, err := f.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	c2, err := ResumeCheckpoint(bytes.NewReader(img), cfg)
	if err != nil {
		t.Fatalf("resume from synced image: %v", err)
	}
	clusterersEqualBitwise(t, "after crash-reopen", c1, c2)

	// The reopened engine's disk budget keeps working: stream the rest of
	// the data through both and the spill/read accounting stays locked.
	for _, p := range pts[500:] {
		if err := c1.Insert(p); err != nil {
			t.Fatal(err)
		}
		if err := c2.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	clusterersEqualBitwise(t, "after continued stream", c1, c2)
	if st := c2.eng.Pager().Stats(); st.OutliersRead == 0 {
		t.Fatal("resumed engine never re-absorbed outliers; accounting continuity unproven")
	}
}
