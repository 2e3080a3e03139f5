package cf

import (
	"math/rand"
	"testing"

	"birch/internal/vec"
)

// FuzzScanLanes drives the four-lane scans against their single-
// accumulator references and the per-entry kernel loop (the brute
// vec.SqDist loop for ScanNearestX0). The fuzzer picks the metric (the
// six dense metrics plus the flat nearest-centroid scan), the CF core,
// the dimension, K, the value regime, the lane that receives a planted
// exact tie of the winner, and how many non-finite candidates to plant;
// a seed draws the values.
func FuzzScanLanes(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(15), uint8(5), int64(1), uint8(2), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(1), uint8(30), int64(2), uint8(4), uint8(3))
	f.Add(uint8(6), uint8(0), uint8(7), uint8(10), int64(3), uint8(11), uint8(1))
	f.Add(uint8(3), uint8(1), uint8(16), uint8(39), int64(4), uint8(15), uint8(2))
	f.Add(uint8(0), uint8(0), uint8(63), uint8(26), int64(5), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, metric, core, dimB, kB uint8, seed int64, tie, nonFinite uint8) {
		dim := 1 + int(dimB)%64
		k := 1 + int(kB)%64
		lane := int(tie) % 4
		regime := int(tie>>2) % 4
		kind := scanCores[int(core)%len(scanCores)]
		r := rand.New(rand.NewSource(seed))
		cands, query := laneCands(r, dim, k, regime, kind)

		mi := int(metric) % (len(denseScanMetrics) + 1)
		if mi == len(denseScanMetrics) {
			// The flat nearest-centroid scan over the candidates'
			// centroids.
			cs := make([]vec.Vector, k)
			for i := range cands {
				cs[i] = cands[i].Centroid()
			}
			q := query.Centroid()
			if w, _ := bruteNearest(q, cs); k > 1 {
				if tt := w + 1 + (lane-(w+1)%4+4)%4; tt < k {
					cs[tt] = cs[w].Clone()
				}
			}
			for n := int(nonFinite) % 4; n > 0; n-- {
				cs[r.Intn(k)] = nonFiniteCF(r, dim, r.Intn(3), CoreBETULA).LS
			}
			if err := checkNearestLanes(q, cs); err != nil {
				t.Fatal(err)
			}
			return
		}

		m := denseScanMetrics[mi]
		q := NewQuery(dim)
		q.Bind(&query)
		plantTie(r, KernelForCore(m, kind), q, cands, lane)
		for n := int(nonFinite) % 4; n > 0; n-- {
			cands[r.Intn(k)] = nonFiniteCF(r, dim, r.Intn(3), kind)
		}
		if err := checkScanLanes(m, kind, q, cands); err != nil {
			t.Fatal(err)
		}
	})
}
