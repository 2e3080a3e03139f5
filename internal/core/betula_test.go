package core

import (
	"testing"

	"birch/internal/cf"
	"birch/internal/quality"
)

// TestRunBetulaRecoversClusters: the BETULA backend drives the whole
// pipeline to the same qualitative result as classic on well-separated
// data — mass conserved, clusters recovered.
func TestRunBetulaRecoversClusters(t *testing.T) {
	pts, truth := gaussianBlobs(8, 9, 400, 30, 1)
	cfg := DefaultConfig(2, 9)
	cfg.Core = cf.CoreBETULA
	res, err := Run(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 9 {
		t.Fatalf("clusters = %d, want 9", len(res.Clusters))
	}
	var mass int64
	for i := range res.Clusters {
		if res.Clusters[i].Kind() != cf.CoreBETULA {
			t.Fatalf("cluster %d carries kind %v", i, res.Clusters[i].Kind())
		}
		mass += res.Clusters[i].N
	}
	if mass+int64(res.Outliers) != int64(len(pts)) {
		t.Fatalf("mass %d + outliers %d != %d", mass, res.Outliers, len(pts))
	}
	if ri := quality.RandIndex(res.Labels, truth); ri < 0.95 {
		t.Fatalf("Rand index %g < 0.95", ri)
	}
}

// TestConfigCoreValidation pins Config.Validate on the core knob.
func TestConfigCoreValidation(t *testing.T) {
	c := DefaultConfig(2, 3)
	c.Core = cf.CoreKind(42)
	if err := c.Validate(); err == nil {
		t.Fatal("invalid core accepted")
	}
	c = DefaultConfig(2, 3)
	c.Core = cf.CoreBETULA
	if err := c.Validate(); err != nil {
		t.Fatalf("betula config rejected: %v", err)
	}
}
