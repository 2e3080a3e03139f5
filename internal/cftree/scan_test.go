package cftree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"birch/internal/cf"
	"birch/internal/vec"
)

// cfBitsEqual reports whether two CFs are bit-for-bit identical — same N,
// same Float64bits for every LS component and for SS. This is the
// equivalence the fused scan contract promises: not approximate, exact.
func cfBitsEqual(a, b *cf.CF) bool {
	if a.N != b.N || len(a.LS) != len(b.LS) {
		return false
	}
	for j := range a.LS {
		if math.Float64bits(a.LS[j]) != math.Float64bits(b.LS[j]) {
			return false
		}
	}
	return math.Float64bits(a.SS) == math.Float64bits(b.SS)
}

// TestScanModesBuildIdenticalTrees inserts the same point stream into one
// tree per scan mode and requires the results to be indistinguishable:
// same shape counters and bit-identical leaf CFs in chain order. Because
// every split, absorb, and refinement decision flows through
// closestEntry, any divergence between the fused block scan and the
// per-entry kernel loop — even a single ULP or a tie broken differently —
// would cascade into different trees and fail here. It covers every
// metric, cosine included, under both CF cores.
func TestScanModesBuildIdenticalTrees(t *testing.T) {
	for _, kind := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		for _, m := range []cf.Metric{cf.D0, cf.D1, cf.D2, cf.D3, cf.D4, cf.DCos} {
			for _, dim := range []int{2, 7} {
				scanModesBuildIdenticalTrees(t, kind, m, dim)
			}
		}
	}
}

func scanModesBuildIdenticalTrees(t *testing.T, kind cf.CoreKind, m cf.Metric, dim int) {
	t.Helper()
	p := defaultParams()
	p.Metric = m
	p.Dim = dim
	p.Threshold = 0.8
	p.Core = kind
	core := cf.CoreFor(kind)
	label := fmt.Sprintf("metric %v core %v dim %d", m, kind, dim)

	p.Scan = ScanFused
	fused := mustTree(t, p)
	p.Scan = ScanEntries
	ref := mustTree(t, p)

	rng := rand.New(rand.NewSource(int64(100*int(m) + dim + 1000*int(kind))))
	x := make([]float64, dim)
	for i := 0; i < 800; i++ {
		for j := range x {
			x[j] = rng.NormFloat64()*2 + float64(rng.Intn(4))*10
		}
		ent := core.FromPoint(vec.Vector(x).Clone())
		fused.Insert(ent.Clone())
		ref.Insert(ent)

		if i == 500 {
			// Rebuild both at the same larger threshold; the new trees
			// must keep matching (Rebuild re-inserts through the same
			// descent).
			var err error
			fused, _, err = fused.Rebuild(p.Threshold*2, nil)
			if err != nil {
				t.Fatalf("%s: fused rebuild: %v", label, err)
			}
			ref, _, err = ref.Rebuild(p.Threshold*2, nil)
			if err != nil {
				t.Fatalf("%s: ref rebuild: %v", label, err)
			}
		}
	}

	if fused.Height() != ref.Height() || fused.Nodes() != ref.Nodes() ||
		fused.LeafEntries() != ref.LeafEntries() || fused.Points() != ref.Points() {
		t.Fatalf("%s: shape diverged: fused (h=%d n=%d e=%d p=%d) vs entries (h=%d n=%d e=%d p=%d)",
			label, fused.Height(), fused.Nodes(), fused.LeafEntries(), fused.Points(),
			ref.Height(), ref.Nodes(), ref.LeafEntries(), ref.Points())
	}
	fc, rc := fused.LeafCFs(), ref.LeafCFs()
	if len(fc) != len(rc) {
		t.Fatalf("%s: %d vs %d leaf CFs", label, len(fc), len(rc))
	}
	for i := range fc {
		if !cfBitsEqual(&fc[i], &rc[i]) {
			t.Fatalf("%s: leaf CF %d differs:\nfused:   %v\nentries: %v",
				label, i, fc[i].String(), rc[i].String())
		}
	}
	if err := fused.CheckInvariants(); err != nil {
		t.Fatalf("%s: fused invariants: %v", label, err)
	}
}

// TestRebuildPreservesScanMode pins that Rebuild carries the scan mode
// into the new tree: a mode chosen at construction must survive every
// rebuild, not silently reset to the default.
func TestRebuildPreservesScanMode(t *testing.T) {
	p := defaultParams()
	p.Scan = ScanEntries
	tr := mustTree(t, p)
	for i := 0; i < 50; i++ {
		insertPoint(tr, float64(i%7), float64(i%11))
	}
	nt, _, err := tr.Rebuild(1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nt.Params().Scan != ScanEntries {
		t.Fatalf("rebuild reset scan mode to %v", nt.Params().Scan)
	}
	if nt.scan != nil {
		t.Fatal("ScanEntries tree has a fused scan kernel after rebuild")
	}
}

// FuzzScanBlockSync decodes the fuzz input as tree-shape knobs plus an op
// tape of point insertions with occasional rebuilds, and checks after
// every phase that each node's scan block is bit-identical to
// recomputation from its entries. This is the differential guard for the
// incremental maintenance paths: absorb, append, split redistribution,
// merging refinement, and rebuild re-insertion all mutate entries, and
// each must leave the blocks exactly in sync. Run with
// `go test -fuzz=FuzzScanBlockSync ./internal/cftree` to explore; the
// seed corpus runs as part of the normal test suite.
func FuzzScanBlockSync(f *testing.F) {
	f.Add([]byte{3, 2, 8, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 5, 64, 2, 255, 255, 0, 0, 128, 128, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := Params{
			Dim:               2,
			Branching:         2 + int(data[0])%6,
			LeafCap:           2 + int(data[1])%6,
			Threshold:         float64(data[2]) / 16,
			ThresholdKind:     cf.ThresholdKind(int(data[3]) % 2),
			Metric:            cf.Metric(int(data[3]) % 5),
			MergingRefinement: data[3]%2 == 0,
		}
		tr, err := New(p, bigPager())
		if err != nil {
			t.Fatal(err)
		}

		checkAll := func(stage string) {
			for _, n := range allNodes(tr) {
				if err := n.checkBlockSync(); err != nil {
					t.Fatalf("%s: block out of sync: %v", stage, err)
				}
			}
		}

		rest := data[4:]
		step := 0
		for len(rest) >= 4 {
			x := float64(int16(binary.LittleEndian.Uint16(rest))) / 64
			y := float64(int16(binary.LittleEndian.Uint16(rest[2:]))) / 64
			rest = rest[4:]
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			tr.Insert(cf.FromPoint(vec.Of(x, y)))
			step++
			if step%16 == 0 {
				checkAll("insert")
			}
			if step%64 == 0 {
				// Rebuild mid-tape: re-insertion must rebuild blocks too.
				tr, _, err = tr.Rebuild(tr.Threshold()*1.5+0.05, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkAll("rebuild")
			}
		}
		checkAll("final")
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
}

// allNodes collects every node of the tree, root first.
func allNodes(t *Tree) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for i := range n.entries {
			if c := n.entries[i].Child; c != nil {
				walk(c)
			}
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return out
}
