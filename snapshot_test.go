package birch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"birch/internal/cf"
	"birch/internal/pager"
	"birch/internal/vec"
)

func noRefineConfig(k int) Config {
	cfg := DefaultConfig(2, k)
	cfg.Refine = false
	return cfg
}

func TestSnapshotRoundTrip(t *testing.T) {
	pts := blobPoints(31, 3, 400, 60, 1)
	half := len(pts) / 2

	// Stream half, checkpoint, resume, stream the rest.
	c1, err := New(noRefineConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:half] {
		if err := c1.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	c2, err := ResumeSnapshot(&buf, noRefineConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[half:] {
		if err := c2.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c2.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	var mass int64
	for i := range res.Clusters {
		mass += res.Clusters[i].N
	}
	if mass != int64(len(pts)) {
		t.Fatalf("mass %d, want %d", mass, len(pts))
	}

	// Quality comparable to an uncheckpointed run.
	direct, err := New(noRefineConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := direct.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	dres, err := direct.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Clusters {
		want := dres.Clusters[i].Diameter()
		got := res.Clusters[i].Diameter()
		if math.Abs(got-want) > 0.3*(want+0.1) {
			t.Fatalf("cluster %d diameter %g vs direct %g", i, got, want)
		}
	}
}

func TestSnapshotSizeIsTreeBound(t *testing.T) {
	// 10× the points must not mean 10× the snapshot: its rows are the
	// tree's leaf entries, whose count is bound by the tree, plus the
	// outlier disk, whose budget the config fixes.
	cfg := noRefineConfig(4)
	type shape struct{ bytes, leaves, outliers int }
	shapeFor := func(n int) shape {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range blobPoints(32, 4, n, 50, 1) {
			if err := c.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return shape{buf.Len(), c.eng.Tree().LeafEntries(), len(c.eng.Outliers())}
	}
	small := shapeFor(2000)
	large := shapeFor(20000)
	// magic, core tag, dim, threshold, two row counts, CRC trailer.
	const header = 8 + 1 + 8 + 8 + 8 + 8 + 4
	rowBytes := 16 + 8*cfg.Dim
	diskRows := int(float64(cfg.Memory)*cfg.OutlierDiskPct/100) / pager.OutlierEntrySize(cfg.Dim)
	for _, s := range []shape{small, large} {
		if want := header + (s.leaves+s.outliers)*rowBytes; s.bytes != want {
			t.Fatalf("snapshot of %d leaf and %d outlier entries is %d bytes, want %d", s.leaves, s.outliers, s.bytes, want)
		}
		if s.outliers > diskRows {
			t.Fatalf("%d outlier entries, the disk budget holds %d", s.outliers, diskRows)
		}
	}
	if large.leaves > 3*small.leaves {
		t.Fatalf("snapshot grew with the stream: %d -> %d leaf entries (%d -> %d bytes)",
			small.leaves, large.leaves, small.bytes, large.bytes)
	}
}

func TestSnapshotAfterFinishFails(t *testing.T) {
	c, err := New(noRefineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(33, 2, 100, 50, 1) {
		if err := c.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err == nil {
		t.Fatal("WriteSnapshot after Finish accepted")
	}
}

func TestResumeSnapshotValidation(t *testing.T) {
	c, err := New(noRefineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Refine on is rejected.
	if _, err := ResumeSnapshot(bytes.NewReader(good), DefaultConfig(2, 2)); err == nil {
		t.Fatal("Refine=true accepted")
	}
	// Dimension mismatch is rejected.
	cfg3 := DefaultConfig(3, 2)
	cfg3.Refine = false
	if _, err := ResumeSnapshot(bytes.NewReader(good), cfg3); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// Bad magic is rejected.
	bad := append([]byte("NOTBIRCH"), good[8:]...)
	if _, err := ResumeSnapshot(bytes.NewReader(bad), noRefineConfig(2)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated data is rejected.
	if _, err := ResumeSnapshot(bytes.NewReader(good[:len(good)-4]), noRefineConfig(2)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// Empty stream is rejected.
	if _, err := ResumeSnapshot(bytes.NewReader(nil), noRefineConfig(2)); err == nil {
		t.Fatal("empty snapshot accepted")
	}
}

func TestResumeSnapshotCorruptCF(t *testing.T) {
	c, err := New(noRefineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(Point{3, 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the CF payload (flip the SS field to garbage that violates
	// Cauchy–Schwarz): header is 8 magic + 1 core tag + 24 header bytes;
	// N is next 8, SS the 8 after.
	for i := 9 + 24 + 8; i < 9+24+16; i++ {
		data[i] = 0
	}
	if _, err := ResumeSnapshot(bytes.NewReader(data), noRefineConfig(2)); err == nil {
		t.Fatal("corrupt CF accepted")
	}
}

// betulaConfig returns a no-refine config on the BETULA backend.
func betulaConfig(k int) Config {
	cfg := noRefineConfig(k)
	cfg.Core = CoreBETULA
	return cfg
}

func TestSnapshotRoundTripBetula(t *testing.T) {
	pts := blobPoints(35, 3, 400, 60, 1)
	half := len(pts) / 2

	c1, err := New(betulaConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:half] {
		if err := c1.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	c2, err := ResumeSnapshot(&buf, betulaConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[half:] {
		if err := c2.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	var mass int64
	for i := range res.Clusters {
		mass += res.Clusters[i].N
	}
	if mass != int64(len(pts)) {
		t.Fatalf("mass %d, want %d", mass, len(pts))
	}
}

// TestSnapshotCoreMismatchRejected is the format-v2 safety property: the
// same byte layout carries (N, LS, SS) under classic and (N, μ, S) under
// BETULA, so reinterpreting a snapshot under the other backend would
// parse cleanly and corrupt every derived statistic silently. The core
// tag must make that a load-time error in both directions.
func TestSnapshotCoreMismatchRejected(t *testing.T) {
	cb, err := New(betulaConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Insert(Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	var bbuf bytes.Buffer
	if err := cb.WriteSnapshot(&bbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSnapshot(bytes.NewReader(bbuf.Bytes()), noRefineConfig(2)); err == nil {
		t.Fatal("betula snapshot accepted under classic config")
	}

	cc, err := New(noRefineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Insert(Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	var cbuf bytes.Buffer
	if err := cc.WriteSnapshot(&cbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSnapshot(bytes.NewReader(cbuf.Bytes()), betulaConfig(2)); err == nil {
		t.Fatal("classic snapshot accepted under betula config")
	}
}

// TestSnapshotV1ReadAsClassic: a version-1 snapshot (pre-core-tag) is the
// version-2 byte stream minus the tag byte with a '1' in the magic; it
// must load as classic and reject a betula config.
func TestSnapshotV1ReadAsClassic(t *testing.T) {
	v2 := readFixture(t, "snapshot-v2.bin")
	// Synthesize the v1 layout: magic ends in '1', no core-tag byte.
	v1 := append([]byte("BIRCHSS1"), v2[9:]...)

	r, err := ResumeSnapshot(bytes.NewReader(v1), noRefineConfig(2))
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if err := r.Insert(Point{3, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSnapshot(bytes.NewReader(v1), betulaConfig(2)); err == nil {
		t.Fatal("v1 (classic) snapshot accepted under betula config")
	}
}

// TestSnapshotKeepsOutlierDiskMass: a snapshot carries the entries on the
// outlier disk as well as the leaves, so the resumed Clusterer's tree
// plus outlier disk holds exactly the writer's point mass.
func TestSnapshotKeepsOutlierDiskMass(t *testing.T) {
	mass := func(c *Clusterer) int64 {
		m := c.eng.Tree().Points()
		for _, o := range c.eng.Outliers() {
			m += o.N
		}
		return m
	}
	for _, kind := range []CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		for seed := int64(1); seed <= 8; seed++ {
			cfg := checkpointConfig(kind, cf.D2)
			pts := blobPoints(seed, 3, 700, 50, 2)
			c1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts[:len(pts)/2] {
				if err := c1.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			if m := mass(c1); m != int64(len(pts)/2) {
				t.Fatalf("%v seed %d: writer holds %d points, inserted %d", kind, seed, m, len(pts)/2)
			}
			var buf bytes.Buffer
			if err := c1.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			c2, err := ResumeSnapshot(&buf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mass(c2), mass(c1); got != want {
				t.Errorf("%v seed %d: resumed %d points, writer held %d (%d entries on its outlier disk)",
					kind, seed, got, want, len(c1.eng.Outliers()))
			}
		}
	}
}

// TestSnapshotRejectsEveryByteFlip: the v3 CRC trailer covers every byte
// after the magic, so even a flip that leaves a valid CF (a float payload
// bit, the threshold) is rejected. (The magic is matched whole; its last
// byte is the version digit, so flipping it selects another layout.)
func TestSnapshotRejectsEveryByteFlip(t *testing.T) {
	c, err := New(noRefineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(62, 2, 40, 50, 1) {
		if err := c.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for off := 8; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		if _, err := ResumeSnapshot(bytes.NewReader(bad), noRefineConfig(2)); err == nil {
			t.Fatalf("snapshot with byte %d of %d flipped accepted", off, len(good))
		}
	}
}

func TestClusterParallelPublicAPI(t *testing.T) {
	pts := blobPoints(34, 4, 500, 50, 1)
	res, err := ClusterParallel(pts, DefaultConfig(2, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	if len(res.Labels) != len(pts) {
		t.Fatalf("labels = %d", len(res.Labels))
	}
}

// failingWriter errors after n bytes, exercising WriteSnapshot's error
// propagation.
type failingWriter struct{ left int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errFull
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errFull
	}
	return n, nil
}

var errFull = errors.New("disk full")

func TestWriteSnapshotPropagatesErrors(t *testing.T) {
	c, err := New(noRefineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(61, 2, 200, 50, 1) {
		if err := c.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []int{0, 4, 20, 100} {
		if err := c.WriteSnapshot(&failingWriter{left: budget}); err == nil {
			t.Errorf("write with %d-byte budget succeeded", budget)
		}
	}
	// A full buffer still works afterwards (no state corruption).
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSnapshot(&buf, noRefineConfig(2)); err != nil {
		t.Fatal(err)
	}
}

// TestResumeSnapshotRejectsCountOverflow: entries whose point counts sum
// past int64 are rejected, instead of wrapping the tree's summary counts
// negative and panicking on the next split.
func TestResumeSnapshotRejectsCountOverflow(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(snapshotMagicV2[:])
	buf.WriteByte(byte(cf.CoreClassic))
	for _, v := range []uint64{2, math.Float64bits(0), 2} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	big := cf.CF{N: 1 << 62, LS: vec.Vector{0, 0}}
	for i := 0; i < 2; i++ {
		buf.Write(cf.AppendRow(nil, &big))
	}
	_, err := ResumeSnapshot(&buf, noRefineConfig(2))
	if err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Fatalf("ResumeSnapshot = %v, want a point-count overflow error", err)
	}
}
