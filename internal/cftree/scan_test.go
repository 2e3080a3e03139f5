package cftree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"birch/internal/cf"
	"birch/internal/vec"
)

// treePins are the SHA-256 digests of pinStream's trees (treeDigest),
// recorded while the split, refinement and D_min paths still ran the
// generic per-pair distance and the per-entry descent reference was
// still in the package; both built these trees bit for bit. Any change to a
// routing, split, refinement or merge decision, or to one bit of a leaf
// CF, moves a digest.
var treePins = map[string]string{
	"classic/D0/d2":  "d41608b79a2b29b1e6cdea5f0b490537e4a0f5b82f9b9fd9aa3475bbd57a887f",
	"classic/D0/d7":  "13850c5143eb212864175ac6c419b80ecb014db7710c8de263581b3924813788",
	"classic/D1/d2":  "a7f8cf0badc5cb87e7f28f86a4d667db27ba7359f0c5e26440c021618f0646ec",
	"classic/D1/d7":  "b18d6ca77b84f518b8a7f44b5ff71205206ba943aadc923e7c5d6aebd5e4cc22",
	"classic/D2/d2":  "e0f3e40db5d45ced7ea91ada10e344af41697d9fefd84f8d5a612c5be99ae7da",
	"classic/D2/d7":  "ba75d8dda2bb3b040761784e2f456b94ae43082ad52fd5c6355c8027394d8638",
	"classic/D3/d2":  "7a359076253a10344e19a6c7e666a8b87dae2bee9ab126734e609518a157cb2b",
	"classic/D3/d7":  "e755d683bced1485eadaf991a9006a9c42db2eb6fc5c16bb7fd413edf0da14cb",
	"classic/D4/d2":  "c0c3d6d25a725427fd5d40998d0f7e24169b091e6c16971384ae2be343a79ea3",
	"classic/D4/d7":  "35858bc0e0d43daf8bd032b9ebca5c609884e83e72c2f2fbbf36bb79cf7ad275",
	"classic/COS/d2": "c5edd9288415634dacaa990ca58cdb0d95c689bbc25be0187ae48758395696ef",
	"classic/COS/d7": "df5b014d5904ee4c769eead2707f1d6dc3368f617d9a63992109b9ebae7d2fea",
	"betula/D0/d2":   "db24611b20ac9c7150c62601ee9669f8bbb029cfbb2d837e1b83293cc462a698",
	"betula/D0/d7":   "93f4867bbeeaf4174be55ba149cc216210355ae0d729bb90230eda669f7b899c",
	"betula/D1/d2":   "491fdc3b95bbc472f6631027df038de6a06571d10e4bce18351a0c6b25d5f8da",
	"betula/D1/d7":   "c89891d1644e965d4723cdb318ce8f9df4b419a1db98ef5d28d31ea67763a4b9",
	"betula/D2/d2":   "2e1c533a8dc4c4bdb60109d43dddf9ff12471d8a8a185b5653901a82f970f6b5",
	"betula/D2/d7":   "f9520170d28f40213448adde7e81aedd290923ca2d9030b0be2b21a15710811a",
	"betula/D3/d2":   "635cea480b2b42cfd55c015d6e6229e295d01f9914eee71dc49656ea2c13122f",
	"betula/D3/d7":   "a9302b5a06873cd82c3c90872dc7822159ced8007f6b02f99c7867a139a8c720",
	"betula/D4/d2":   "e5f1a55a92f200db063c38a453dea47ea980863f9cf86c42660975626bcea0e9",
	"betula/D4/d7":   "890debf3440b2b25e41cb6b627597596ab9a9d20c1a6b45404e5464f5ac0bcaf",
	"betula/COS/d2":  "ac661040f7c563ca8a66e768315411b9767c803a3a77b01cbf1d4970d8ad29ca",
	"betula/COS/d7":  "25fca538c457ad365669c224724036117fa479e1c59067321a2ad9c34c222c38",
}

// TestTreeDecisionsPinned builds pinStream's tree for every metric under
// both cores at d ∈ {2, 7} and compares each tree's digest with its pin.
func TestTreeDecisionsPinned(t *testing.T) {
	for _, kind := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		for _, m := range []cf.Metric{cf.D0, cf.D1, cf.D2, cf.D3, cf.D4, cf.DCos} {
			for _, dim := range []int{2, 7} {
				label := fmt.Sprintf("%v/%v/d%d", kind, m, dim)
				got := treeDigest(pinStream(t, kind, m, dim, nil))
				if want := treePins[label]; got != want {
					t.Errorf("%s: tree digest %s, pinned %s", label, got, want)
				}
			}
		}
	}
}

// TestClosestEntryMatchesKernelLoop is the descent reference: at every
// node of sampled descents, closestEntry returns the per-entry kernel
// loop's argmin, with the same index and the same distance bits. Every
// eighth point of pinStream's stream is checked just before it is
// inserted, so the checks span every tree the stream passes through,
// rebuild included. Where the tree has a gather scan (DCos under both
// cores, D2 classic), the point's sparse twin (its even coordinates
// zeroed) is checked through BindSparse as well.
func TestClosestEntryMatchesKernelLoop(t *testing.T) {
	for _, kind := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		for _, m := range []cf.Metric{cf.D0, cf.D1, cf.D2, cf.D3, cf.D4, cf.DCos} {
			for _, dim := range []int{2, 7} {
				label := fmt.Sprintf("%v/%v/d%d", kind, m, dim)
				dense, sparse, i := 0, 0, 0
				pinStream(t, kind, m, dim, func(tr *Tree, ent *cf.CF) {
					if i++; i%8 != 0 || tr.LeafEntries() == 0 {
						return
					}
					tr.query.Bind(ent)
					dense += checkDescent(t, label, tr)
					if tr.sscan == nil {
						return
					}
					sp := vec.Sparse{D: dim}
					for j := 1; j < dim; j += 2 {
						sp.Idx = append(sp.Idx, int32(j))
						sp.Val = append(sp.Val, ent.Centroid()[j])
					}
					spCF := cf.FromSparsePoint(sp, kind)
					tr.query.BindSparse(&spCF, sp)
					sparse += checkDescent(t, label+" sparse", tr)
				})
				if _, gather := cf.SparseScanKernelForCore(m, kind); dense == 0 || (gather && sparse == 0) {
					t.Fatalf("%s: checked %d dense and %d sparse nodes", label, dense, sparse)
				}
			}
		}
	}
}

// checkDescent follows the bound query's descent from the root, comparing
// closestEntry with the kernel loop at every node, and returns the number
// of nodes checked.
func checkDescent(t *testing.T, label string, tr *Tree) int {
	t.Helper()
	for n, checked := tr.root, 1; ; checked++ {
		idx, d := tr.closestEntry(n)
		best, bestD := 0, tr.kernel(tr.query, &n.entries[0].CF)
		for i := 1; i < len(n.entries); i++ {
			if d := tr.kernel(tr.query, &n.entries[i].CF); d < bestD {
				best, bestD = i, d
			}
		}
		if idx != best || math.Float64bits(d) != math.Float64bits(bestD) {
			t.Fatalf("%s: closestEntry (%d, %x), kernel loop (%d, %x) over %d entries",
				label, idx, math.Float64bits(d), best, math.Float64bits(bestD), len(n.entries))
		}
		if n.leaf {
			return checked
		}
		n = n.entries[idx].Child
	}
}

// pinStream builds one tree from a seeded 800-point stream of four
// offset Gaussian blobs per axis, rebuilding it at twice the threshold
// after point 500. visit, if non-nil, sees the tree and each point's CF
// just before the point is inserted.
func pinStream(t *testing.T, kind cf.CoreKind, m cf.Metric, dim int, visit func(*Tree, *cf.CF)) *Tree {
	t.Helper()
	p := defaultParams()
	p.Metric = m
	p.Dim = dim
	p.Threshold = 0.8
	p.Core = kind
	core := cf.CoreFor(kind)
	tr := mustTree(t, p)
	rng := rand.New(rand.NewSource(int64(100*int(m) + dim + 1000*int(kind))))
	x := make([]float64, dim)
	for i := 0; i < 800; i++ {
		for j := range x {
			x[j] = rng.NormFloat64()*2 + float64(rng.Intn(4))*10
		}
		ent := core.FromPoint(vec.Vector(x).Clone())
		if visit != nil {
			visit(tr, &ent)
		}
		tr.Insert(ent)
		if i == 500 {
			var err error
			if tr, _, err = tr.Rebuild(p.Threshold*2, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// treeDigest hashes a tree's shape counters, its leaf CFs in chain order
// (N, then the Float64bits of every LS component and of SS) and the bits
// of its D_min (ClosestLeafPairDistance).
func treeDigest(tr *Tree) string {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(uint64(tr.Height()))
	put(uint64(tr.Nodes()))
	put(uint64(tr.LeafEntries()))
	put(uint64(tr.Points()))
	for _, c := range tr.LeafCFs() {
		put(uint64(c.N))
		for _, v := range c.LS {
			put(math.Float64bits(v))
		}
		put(math.Float64bits(c.SS))
	}
	dmin, ok := tr.ClosestLeafPairDistance(1)
	put(math.Float64bits(dmin))
	if ok {
		put(1)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzScanBlockSync decodes the fuzz input as tree-shape knobs (the CF
// core and all six metrics among them) plus an op tape of point
// insertions with occasional rebuilds, and checks after every phase that
// each node's scan block maintains exactly the slab families
// cf.SlabsFor names for the tree's (metric, core) pair and is
// bit-identical to recomputation from its entries in each of them. This
// is the differential guard for the incremental maintenance paths:
// absorb, append, split redistribution, merging refinement, and rebuild
// re-insertion all mutate entries, and each must leave the blocks exactly
// in sync. Run with
// `go test -fuzz=FuzzScanBlockSync ./internal/cftree` to explore; the
// seed corpus runs as part of the normal test suite.
func FuzzScanBlockSync(f *testing.F) {
	f.Add([]byte{3, 2, 8, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 5, 64, 2, 255, 255, 0, 0, 128, 128, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{131, 3, 24, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 9, 8, 7, 6})
	f.Add([]byte{1, 4, 12, 5, 250, 240, 230, 220, 210, 200, 190, 180, 170, 160})

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
			Metric:            cf.Metric(int(data[3]) % 6),
			Core:              cf.CoreKind(data[0] >> 7),
			MergingRefinement: data[3]%2 == 0,
		}
		tr, err := New(p, bigPager())
		if err != nil {
			t.Fatal(err)
		}
		core := cf.CoreFor(p.Core)
		slabs := cf.SlabsFor(p.Metric, p.Core)

		checkAll := func(stage string) {
			for _, n := range allNodes(tr) {
				if got := n.blk.Slabs(); got != slabs {
					t.Fatalf("%s: block keeps slabs %b, SlabsFor gives %b", stage, got, slabs)
				}
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
			tr.Insert(core.FromPoint(vec.Of(x, y)))
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
