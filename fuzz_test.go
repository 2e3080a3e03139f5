package birch

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzResumeSnapshot feeds arbitrary bytes to the snapshot reader: it
// must reject garbage with an error, never panic, and accept only
// streams it could itself have produced.
func FuzzResumeSnapshot(f *testing.F) {
	// Seed with a valid snapshot and some mutations of it.
	c, err := New(noRefineConfig(2))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []Point{{1, 2}, {50, 60}, {1.2, 2.1}} {
		if err := c.Insert(p); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	v2, err := os.ReadFile(filepath.Join("testdata", "snapshot-v2.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add([]byte("BIRCHSS1garbage"))
	f.Add([]byte("BIRCHSS2garbage"))
	f.Add([]byte("BIRCHSS3garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ResumeSnapshot(bytes.NewReader(data), noRefineConfig(2))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must be usable.
		if err := c.Insert(Point{3, 3}); err != nil {
			t.Fatalf("resumed clusterer rejects inserts: %v", err)
		}
	})
}
