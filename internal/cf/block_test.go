package cf

import (
	"math"
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// TestBlockSetAppendSync pins the maintenance invariant: after any
// sequence of Append/Set/Remove/Truncate, every slot is bit-identical to
// recomputation from the CF it mirrors, in each slab set a classic tree
// keeps (one per metric).
func TestBlockSetAppendSync(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i, dim := range []int{1, 2, 7, 32, 3, 5} {
		b := NewBlockOpts(dim, 4, denseScanMetrics[i], CoreClassic)
		var mirror []CF
		for i := 0; i < 12; i++ {
			c := randCF(r, dim, 1+r.Intn(30), 50)
			b.Append(&c)
			mirror = append(mirror, c)
		}
		checkMirror(t, b, mirror)

		// Merge into a few slots and refresh them, as the absorb path does.
		for i := 0; i < 6; i++ {
			idx := r.Intn(len(mirror))
			add := randCF(r, dim, 1+r.Intn(5), 50)
			mirror[idx].Merge(&add)
			b.Set(idx, &mirror[idx])
		}
		checkMirror(t, b, mirror)

		// Remove from the middle, then truncate.
		b.Remove(3)
		mirror = append(mirror[:3], mirror[4:]...)
		checkMirror(t, b, mirror)
		b.Truncate(5)
		mirror = mirror[:5]
		checkMirror(t, b, mirror)

		// Refill after truncation: capacity reuse must not corrupt slots.
		extra := randCF(r, dim, 3, 50)
		b.Append(&extra)
		mirror = append(mirror, extra)
		checkMirror(t, b, mirror)
	}
}

func checkMirror(t *testing.T, b *Block, mirror []CF) {
	t.Helper()
	if b.Len() != len(mirror) {
		t.Fatalf("block len %d, mirror len %d", b.Len(), len(mirror))
	}
	for i := range mirror {
		if err := b.CheckSync(i, &mirror[i]); err != nil {
			t.Fatalf("slot %d out of sync: %v", i, err)
		}
		if b.EntryN(i) != mirror[i].N {
			t.Fatalf("slot %d EntryN %d, want %d", i, b.EntryN(i), mirror[i].N)
		}
	}
}

// TestBlockCheckSyncDetectsDrift makes sure the sync checker actually
// fails on a stale slot — otherwise the fuzzer's oracle is vacuous.
func TestBlockCheckSyncDetectsDrift(t *testing.T) {
	c := FromPoints([]vec.Vector{vec.Of(1, 2), vec.Of(3, 4)})
	b := NewBlockOpts(2, 2, DCos, CoreClassic)
	b.Append(&c)
	drifted := c.Clone()
	drifted.AddPoint(vec.Of(5, 6))
	if err := b.CheckSync(0, &drifted); err == nil {
		t.Fatal("CheckSync accepted a stale slot")
	}
	if err := b.CheckSync(0, &c); err != nil {
		t.Fatalf("CheckSync rejected a synced slot: %v", err)
	}
	if err := b.CheckSync(5, &c); err == nil {
		t.Fatal("CheckSync accepted an out-of-range slot")
	}
	b.cn[0] = math.Nextafter(b.cn[0], 0)
	if err := b.CheckSync(0, &c); err == nil {
		t.Fatal("CheckSync accepted a stale centroid norm")
	}

	// A family outside the block's set must stay empty.
	d2 := NewBlockOpts(2, 2, D2, CoreClassic)
	d2.Append(&c)
	d2.cn = append(d2.cn, 0)
	if err := d2.CheckSync(0, &c); err == nil {
		t.Fatal("CheckSync accepted a cn word on a D2 block")
	}
}

// TestSlabsForTable pins the slab families each (metric, core) pair's
// blocks maintain: what the pair's fused scan reads plus the decode
// slabs (ls classic; x0 and sb BETULA). Classic D2/D3 keep no x0 and no
// norm; only DCos keeps cn. Every gather scan reads a subset of its
// pair's set, and NewBlockOpts allocates exactly the set.
func TestSlabsForTable(t *testing.T) {
	want := map[CoreKind]map[Metric]Slabs{
		CoreClassic: {
			D0: SlabX0 | SlabLS, D1: SlabX0 | SlabLS, D4: SlabX0 | SlabLS,
			D2: SlabLS, D3: SlabLS,
			DCos: SlabX0 | SlabLS | SlabCN,
		},
		CoreBETULA: {
			D0: SlabX0 | SlabSB, D1: SlabX0 | SlabSB, D4: SlabX0 | SlabSB,
			D2: SlabX0 | SlabSB, D3: SlabX0 | SlabSB,
			DCos: SlabX0 | SlabSB | SlabCN,
		},
	}
	for kind, byMetric := range want {
		for m, w := range byMetric {
			if got := SlabsFor(m, kind); got != w {
				t.Errorf("SlabsFor(%v, %v) = %04b, want %04b", m, kind, got, w)
			}
			b := NewBlockOpts(3, 4, m, kind)
			for _, f := range []struct {
				slab  Slabs
				words []float64
			}{{SlabX0, b.x0}, {SlabLS, b.ls}, {SlabSB, b.sb}, {SlabCN, b.cn}} {
				if (w&f.slab != 0) != (f.words != nil) {
					t.Errorf("NewBlockOpts(%v, %v): slab %04b allocated = %v, in set = %v",
						m, kind, f.slab, f.words != nil, w&f.slab != 0)
				}
			}
		}
	}
	for _, pair := range sparseGatherPairs {
		// The gather scans stream the same slabs as the dense scan of
		// their pair: DCos the x0 rows and cn, classic D2 the ls rows.
		reads := SlabX0 | SlabCN
		if pair.m == D2 {
			reads = SlabLS
		}
		if SlabsFor(pair.m, pair.kind)&reads != reads {
			t.Errorf("(%v, %v): gather scan reads slabs %04b outside the set", pair.m, pair.kind, reads)
		}
	}
	if got := NewCentroidBlock(3, 4).Slabs(); got != SlabX0 {
		t.Errorf("centroid block keeps %04b, want x0 alone", got)
	}
}

// TestBlockAppendCFs verifies round-tripping slots back into CFs is
// bit-exact (N, LS, SS are stored verbatim in the slab).
func TestBlockAppendCFs(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const dim = 5
	b := NewBlockOpts(dim, 2, D2, CoreClassic)
	var want []CF
	for i := 0; i < 9; i++ {
		c := randCF(r, dim, 1+r.Intn(20), 1e6)
		b.Append(&c)
		want = append(want, c)
	}
	got := b.AppendCFs(nil)
	if len(got) != len(want) {
		t.Fatalf("decoded %d CFs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].N != want[i].N {
			t.Fatalf("CF %d: N=%d, want %d", i, got[i].N, want[i].N)
		}
		if math.Float64bits(got[i].SS) != math.Float64bits(want[i].SS) {
			t.Fatalf("CF %d: SS=%g, want %g", i, got[i].SS, want[i].SS)
		}
		for j := range want[i].LS {
			if math.Float64bits(got[i].LS[j]) != math.Float64bits(want[i].LS[j]) {
				t.Fatalf("CF %d: LS[%d]=%g, want %g", i, j, got[i].LS[j], want[i].LS[j])
			}
		}
		// Decoded CFs must be independent copies, not slab aliases.
		got[i].LS[0]++
		if err := b.CheckSync(i, &want[i]); err != nil {
			t.Fatalf("mutating a decoded CF corrupted the block: %v", err)
		}
		got[i].LS[0]--
	}
}

// TestBlockValidation pins the constructor and Set preconditions.
func TestBlockValidation(t *testing.T) {
	mustPanic(t, "zero dim", func() { NewBlockOpts(0, 4, D0, CoreClassic) })
	mustPanic(t, "zero dim centroid block", func() { NewCentroidBlock(0, 4) })
	mustPanic(t, "invalid metric", func() { NewBlockOpts(2, 4, Metric(99), CoreClassic) })
	mustPanic(t, "decoding a centroid block", func() {
		c := NewCentroidBlock(2, 1)
		c.AppendPoint(vec.Of(1, 2))
		c.AppendCFs(nil)
	})
	b := NewBlockOpts(2, 4, D0, CoreClassic)
	empty := New(2)
	one := FromPoint(vec.Of(1, 2))
	b.Append(&one)
	mustPanic(t, "empty CF", func() { b.Set(0, &empty) })
	wrong := FromPoint(vec.Of(1, 2, 3))
	mustPanic(t, "dimension mismatch", func() { b.Set(0, &wrong) })
}
