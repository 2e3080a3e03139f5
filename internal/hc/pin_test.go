package hc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"birch/internal/cf"
	"birch/internal/vec"
)

// dendrogramPins are the SHA-256 digests of pinnedItems' dendrograms
// (hashResult), recorded before Phase 3 moved from the generic pair
// distance onto the bound-query kernels. Any change to a merge decision
// or to one bit of a merge distance or a final cluster CF moves a digest.
var dendrogramPins = map[string]string{
	"classic/D0":  "345500cd089a8486437ba3adfaaa029a12be8c508a14ccc90263e98167ce0c19",
	"classic/D1":  "af35477f407467ac9309713b29ac26f110a5de4620f4a02165abe305c00b456d",
	"classic/D2":  "ee4d08c980b90fd25ffea0781e7b11433714062c7360b5bf0d6055b3c183ad62",
	"classic/D3":  "0d35d3a9da35712ed114f0b6f6b9bb7726e9ae8db7e20a71889b804b06fc28f9",
	"classic/D4":  "2e521a4385478e0a86456257e3e5acb6ad48099f89caac075ac506a78584fc71",
	"classic/COS": "33d55cf4d14dd43a77e76f83c6adf98ade172cd6f3fe5a6cac30be3b4916fed7",
	"betula/D0":   "d48759199b764be3add35b0f546110b312bf09de64d956c6792816f17c00f237",
	"betula/D1":   "b5606cd0a06cb875d13ba2766edaa1b1a7b3f011ddc0fd47d82a346473912cf4",
	"betula/D2":   "cd1196d279f0a5f81510f81f15b8ae09925f6737735c947ecb2aeeab316ba933",
	"betula/D3":   "72208d52b81d4acff1e85149c6d0069877e0a89654d7349896c621ae30737f70",
	"betula/D4":   "1b611f2ed2e40c96f1024b819f34fe13414b6ac368958d083e22ed9680f0d2cc",
	"betula/COS":  "a69340549b59092e1c7840cdfa1e31da9affd651b884899ec6deda05421ebce6",
}

// TestDendrogramsPinned clusters random CF sets under every metric and
// both cores and compares each run's digest with its pin.
func TestDendrogramsPinned(t *testing.T) {
	for _, kind := range []cf.CoreKind{cf.CoreClassic, cf.CoreBETULA} {
		for _, m := range []cf.Metric{cf.D0, cf.D1, cf.D2, cf.D3, cf.D4, cf.DCos} {
			label := fmt.Sprintf("%v/%v", kind, m)
			h := sha256.New()
			for _, dim := range []int{2, 5} {
				res, err := Cluster(pinnedItems(kind, dim), Options{K: 3, Metric: m})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				hashResult(h, res)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := dendrogramPins[label]; got != want {
				t.Errorf("%s: dendrogram digest %s, pinned %s", label, got, want)
			}
		}
	}
}

// pinnedItems builds 80 seeded CFs of the given core and dimension:
// weights 1–8, centres spread over three magnitudes, and every ninth
// item a copy of an earlier one so that exact distance ties occur.
func pinnedItems(kind cf.CoreKind, dim int) []cf.CF {
	r := rand.New(rand.NewSource(int64(31*dim + int(kind))))
	items := make([]cf.CF, 80)
	p := vec.New(dim)
	for i := range items {
		if i%9 == 8 {
			items[i] = items[r.Intn(i)].Clone()
			continue
		}
		scale := []float64{1, 50, 1e4}[r.Intn(3)]
		c := cf.NewCore(dim, kind)
		center := vec.New(dim)
		for j := range center {
			center[j] = (r.Float64() - 0.5) * scale
		}
		for n := 1 + r.Intn(8); n > 0; n-- {
			for j := range p {
				p[j] = center[j] + r.NormFloat64()
			}
			c.AddPoint(p)
		}
		items[i] = c
	}
	return items
}

// hashResult writes a run's dendrogram — every merge's A, B and the
// Float64bits of its distance — and then every final cluster's N and the
// bits of its LS components and SS into h.
func hashResult(h hash.Hash, res *Result) {
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, mg := range res.Dendrogram {
		put(uint64(mg.A))
		put(uint64(mg.B))
		put(math.Float64bits(mg.Distance))
	}
	for _, c := range res.Clusters {
		put(uint64(c.N))
		for _, v := range c.LS {
			put(math.Float64bits(v))
		}
		put(math.Float64bits(c.SS))
	}
}
