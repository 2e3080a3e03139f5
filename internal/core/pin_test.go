package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"birch/internal/cf"
	"birch/internal/dataset"
	"birch/internal/hc"
)

// phase3Pins are the SHA-256 digests of Phase 3 over DS1's Phase 3 input
// (the leaf CFs after Phases 1 and 2 under DefaultConfig), recorded
// before the split, D_min and HC paths moved from the generic pair
// distance onto the bound-query kernels. Each digest covers the input
// leaves, every dendrogram step (A, B and the Float64bits of the
// distance) and the final cluster CFs, so a changed Phase 1 or Phase 2
// decision moves it as surely as a changed merge.
var phase3Pins = map[string]string{
	"classic/D0":  "bedf84397246223127d3dfc349b3369a917a8cd44acf41feedff9a93aa127cf3",
	"classic/D1":  "881fdb6ef2bb3134b8b048edeb6e4f1201f4cbb6456990f5c9fe98f1b60f9f36",
	"classic/D2":  "b0c8110ad2972efc2cc11a1cf141da35bfa5c99d87886b14ec9d941998273d9d",
	"classic/D3":  "34a93c90a63684fe1743b26c95b164af0e20c3af6dbd537d877a766fdafb3776",
	"classic/D4":  "605c7a5dd015299a10f8307f3dd1bca0182ebcbd04142aa6a21f3c15f9435ca2",
	"classic/COS": "289464c115a70ed58a6168c2373f5c922d5f4c4d30c5f70e173d8156e019936c",
	"betula/D0":   "1fc030ac68baac7fc3fa62133d6c6c2dcb171bc731b7efca7735e5ccc33b1d83",
	"betula/D1":   "160175295503cf0beba2ca6ccd053d3280557a7a194737d42940762c22be56c6",
	"betula/D2":   "1ef630b2121bca6b60f250eb81a6fccf84e1fb2a0d2b84aa976a28b18336f7f9",
	"betula/D3":   "59dc0f03175498f66de387ac45b58faa8d0ce723f3e8c6a63b89a15f3700bc6c",
	"betula/D4":   "efc4ac256f784cde5b850366a264617f661c9b2fa0fabab21dbc6a9ecfb268f7",
	"betula/COS":  "53dcdf24fc7b516cadb53eefe0825ab3a255106c69046dc3c8232e9074706c6a",
}

func TestPhase3DS1Pinned(t *testing.T) {
	points := dataset.DS1().Points
	for _, kind := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		cfg := DefaultConfig(2, 100)
		cfg.Core = kind
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetExpectedN(int64(len(points)))
		if err := eng.addPoints(points); err != nil {
			t.Fatal(err)
		}
		eng.FinishPhase1()
		eng.Condense()
		leaves := eng.tree.LeafCFs()
		for _, m := range []cf.Metric{cf.D0, cf.D1, cf.D2, cf.D3, cf.D4, cf.DCos} {
			label := fmt.Sprintf("%v/%v", kind, m)
			res, err := hc.Cluster(leaves, hc.Options{K: cfg.K, Metric: m})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			h := sha256.New()
			put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
			putCF := func(c *cf.CF) {
				put(uint64(c.N))
				for _, v := range c.LS {
					put(math.Float64bits(v))
				}
				put(math.Float64bits(c.SS))
			}
			for i := range leaves {
				putCF(&leaves[i])
			}
			for _, mg := range res.Dendrogram {
				put(uint64(mg.A))
				put(uint64(mg.B))
				put(math.Float64bits(mg.Distance))
			}
			for i := range res.Clusters {
				putCF(&res.Clusters[i])
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := phase3Pins[label]; got != want {
				t.Errorf("%s: Phase 3 digest %s, pinned %s", label, got, want)
			}
		}
	}
}
