package cftree

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"birch/internal/cf"
	"birch/internal/vec"
)

// equalTreesBitwise fails the test unless a and b are structurally
// identical with bit-identical CF components, identical counters, and
// the same leaf-chain permutation.
func equalTreesBitwise(t *testing.T, label string, a, b *Tree) {
	t.Helper()
	if a.Height() != b.Height() || a.Nodes() != b.Nodes() ||
		a.LeafEntries() != b.LeafEntries() || a.Points() != b.Points() {
		t.Fatalf("%s: counters differ: (h=%d n=%d le=%d p=%d) vs (h=%d n=%d le=%d p=%d)",
			label, a.Height(), a.Nodes(), a.LeafEntries(), a.Points(),
			b.Height(), b.Nodes(), b.LeafEntries(), b.Points())
	}
	if math.Float64bits(a.Threshold()) != math.Float64bits(b.Threshold()) {
		t.Fatalf("%s: thresholds differ: %v vs %v", label, a.Threshold(), b.Threshold())
	}
	aLeafIdx := make(map[*Node]int)
	bLeafIdx := make(map[*Node]int)
	var walk func(x, y *Node)
	walk = func(x, y *Node) {
		if x.leaf != y.leaf || len(x.entries) != len(y.entries) {
			t.Fatalf("%s: node shape differs (leaf %v/%v, %d/%d entries)",
				label, x.leaf, y.leaf, len(x.entries), len(y.entries))
		}
		if x.leaf {
			aLeafIdx[x] = len(aLeafIdx)
			bLeafIdx[y] = len(bLeafIdx)
		}
		for i := range x.entries {
			ca, cb := &x.entries[i].CF, &y.entries[i].CF
			if ca.N != cb.N || math.Float64bits(ca.SS) != math.Float64bits(cb.SS) {
				t.Fatalf("%s: entry %d differs: N %d/%d SS %x/%x",
					label, i, ca.N, cb.N, math.Float64bits(ca.SS), math.Float64bits(cb.SS))
			}
			for j := range ca.LS {
				if math.Float64bits(ca.LS[j]) != math.Float64bits(cb.LS[j]) {
					t.Fatalf("%s: entry %d LS[%d] differs", label, i, j)
				}
			}
		}
		if !x.leaf {
			for i := range x.entries {
				walk(x.entries[i].Child, y.entries[i].Child)
			}
		}
	}
	walk(a.Root(), b.Root())
	var aChain, bChain []int
	for n := a.leafHead; n != nil; n = n.next {
		aChain = append(aChain, aLeafIdx[n])
	}
	for n := b.leafHead; n != nil; n = n.next {
		bChain = append(bChain, bLeafIdx[n])
	}
	if len(aChain) != len(bChain) {
		t.Fatalf("%s: chain lengths differ: %d vs %d", label, len(aChain), len(bChain))
	}
	for i := range aChain {
		if aChain[i] != bChain[i] {
			t.Fatalf("%s: chain permutation differs at %d: %v vs %v", label, i, aChain, bChain)
		}
	}
}

func roundTrip(t *testing.T, tr *Tree, params Params) *Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, err := ReadCheckpoint(&buf, params, bigPager())
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	return got
}

func buildTree(t *testing.T, params Params, seed int64, n int) *Tree {
	t.Helper()
	tr := mustTree(t, params)
	backend := cf.CoreFor(params.Core)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := vec.New(params.Dim)
		for j := range p {
			p[j] = r.Float64() * 40
		}
		tr.Insert(backend.FromPoint(p))
	}
	return tr
}

func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	for _, core := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		for _, metric := range []cf.Metric{cf.D0, cf.D2, cf.D4} {
			params := defaultParams()
			params.Core = core
			params.Metric = metric
			params.Threshold = 1.5
			// Names keep the core/precision/metric shape; float64 slabs
			// are the only precision.
			name := core.String() + "/f64/" + metric.String()
			t.Run(name, func(t *testing.T) {
				tr := buildTree(t, params, 42, 400)
				if tr.Height() < 2 {
					t.Fatalf("test tree too small (height %d)", tr.Height())
				}
				got := roundTrip(t, tr, params)
				equalTreesBitwise(t, "after load", tr, got)
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("restored tree invariants: %v", err)
				}

				// Continuation: both trees must evolve bit-identically.
				backend := cf.CoreFor(core)
				r := rand.New(rand.NewSource(7))
				for i := 0; i < 120; i++ {
					p := vec.New(params.Dim)
					for j := range p {
						p[j] = r.Float64() * 40
					}
					tr.Insert(backend.FromPoint(p))
					got.Insert(backend.FromPoint(p.Clone()))
				}
				equalTreesBitwise(t, "after continued inserts", tr, got)

				// Rebuild consumes chain order; a preserved permutation
				// means the rebuilt trees match bit-for-bit too.
				tr2, out1, err := tr.Rebuild(tr.Threshold()*2, nil)
				if err != nil {
					t.Fatalf("Rebuild original: %v", err)
				}
				got2, out2, err := got.Rebuild(got.Threshold()*2, nil)
				if err != nil {
					t.Fatalf("Rebuild restored: %v", err)
				}
				if len(out1) != len(out2) {
					t.Fatalf("rebuild outliers differ: %d vs %d", len(out1), len(out2))
				}
				equalTreesBitwise(t, "after rebuild", tr2, got2)
			})
		}
	}
}

func TestCheckpointChainOrderSurvives(t *testing.T) {
	params := defaultParams()
	params.Threshold = 0.8
	tr := buildTree(t, params, 99, 600)
	// The chain must differ from preorder for this test to bite.
	leafIdx := make(map[*Node]int)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			leafIdx[n] = len(leafIdx)
			return
		}
		for i := range n.entries {
			walk(n.entries[i].Child)
		}
	}
	walk(tr.Root())
	inPreorder := true
	i := 0
	for n := tr.leafHead; n != nil; n = n.next {
		if leafIdx[n] != i {
			inPreorder = false
		}
		i++
	}
	if inPreorder {
		t.Skip("chain happens to equal preorder; test would prove nothing")
	}
	got := roundTrip(t, tr, params)
	a := tr.LeafCFs()
	b := got.LeafCFs()
	if len(a) != len(b) {
		t.Fatalf("LeafCFs lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].N != b[i].N || math.Float64bits(a[i].SS) != math.Float64bits(b[i].SS) {
			t.Fatalf("LeafCFs order diverged at %d", i)
		}
	}
}

func TestCheckpointEmptyTree(t *testing.T) {
	params := defaultParams()
	tr := mustTree(t, params)
	got := roundTrip(t, tr, params)
	equalTreesBitwise(t, "empty", tr, got)
	insertPoint(got, 1, 2)
	if got.Points() != 1 {
		t.Fatalf("restored empty tree rejects inserts")
	}
}

func TestCheckpointIdentityMismatchRejected(t *testing.T) {
	params := defaultParams()
	tr := buildTree(t, params, 3, 100)
	var buf bytes.Buffer
	if err := tr.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"core", func(p *Params) { p.Core = cf.CoreBETULA }},
		{"metric", func(p *Params) { p.Metric = cf.D0 }},
		{"dim", func(p *Params) { p.Dim = 3 }},
		{"thresholdKind", func(p *Params) { p.ThresholdKind = cf.ThresholdRadius }},
	}
	for _, tc := range cases {
		bad := params
		tc.mutate(&bad)
		if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), bad, bigPager()); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		} else if errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s mismatch misreported as corruption: %v", tc.name, err)
		}
	}
	// Cross-core in the other direction too.
	bp := params
	bp.Core = cf.CoreBETULA
	btr := buildTree(t, bp, 3, 100)
	buf.Reset()
	if err := btr.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), params, bigPager()); err == nil {
		t.Error("betula checkpoint accepted under classic params")
	}
}

func TestCheckpointCorruptionRejected(t *testing.T) {
	params := defaultParams()
	tr := buildTree(t, params, 11, 200)
	var buf bytes.Buffer
	if err := tr.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// Truncation at various points must never half-load.
	for cut := 0; cut < len(img)-1; cut += 37 {
		if _, err := ReadCheckpoint(bytes.NewReader(img[:cut]), params, bigPager()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bit flips must be caught (CRC or structural validation).
	for off := 8; off < len(img); off += 13 {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0x40
		if _, err := ReadCheckpoint(bytes.NewReader(mut), params, bigPager()); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}
	// Sanity: the pristine image still loads.
	if _, err := ReadCheckpoint(bytes.NewReader(img), params, bigPager()); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}

func TestCheckpointDumpStable(t *testing.T) {
	params := defaultParams()
	tr := buildTree(t, params, 21, 350)
	got := roundTrip(t, tr, params)
	var da, db strings.Builder
	if err := tr.Dump(&da); err != nil {
		t.Fatal(err)
	}
	if err := got.Dump(&db); err != nil {
		t.Fatal(err)
	}
	if da.String() != db.String() {
		t.Fatal("Dump output differs after checkpoint round trip")
	}
}
