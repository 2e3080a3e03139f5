// Package kmeans implements weighted Lloyd k-means over CF-summarized
// items. BIRCH's Phase 3 can run any global clustering algorithm over the
// leaf entries; the paper's experiments use an adapted agglomerative HC,
// and this package provides the other standard choice so the two can be
// compared (DESIGN.md ablation "HC vs weighted k-means"). It also backs
// Phase 4: refinement is exactly one-or-more Lloyd assignment passes over
// the raw data seeded with the Phase 3 centroids.
//
// Each input item is a CF triple, i.e. a centroid with weight N and an
// internal scatter; the algorithm clusters the centroids with weight N,
// which is the correct adaptation for subcluster inputs.
//
// The package carries the deterministic lint contract (DESIGN.md §12):
// with a fixed seed, a run produces bit-identical centroids regardless of
// worker count or scheduling.
//
//birchlint:deterministic
package kmeans

import (
	"errors"
	"fmt"
	"math/rand"

	"birch/internal/cf"
	"birch/internal/vec"
)

// Options configures a k-means run.
type Options struct {
	// K is the number of clusters; required.
	K int
	// MaxIter bounds Lloyd iterations. Zero means the default of 50.
	MaxIter int
	// Tol stops iteration when no centroid moves more than Tol (squared
	// Euclidean). Zero means exact convergence (no assignment changes).
	Tol float64
	// Seed drives the k-means++ initialization; runs are deterministic
	// for a fixed seed.
	Seed int64
	// InitialCentroids, when non-nil, skips seeding and starts Lloyd from
	// these centers (used by BIRCH Phase 4, which seeds with the Phase 3
	// centroids). Its length must equal K.
	InitialCentroids []vec.Vector
	// Workers bounds the goroutines used by the Lloyd assignment and
	// accumulation loops; 0 or 1 runs inline. The result is bit-identical
	// for every value: the loops run over a fixed chunk grid with the
	// cross-chunk sums folded in chunk-index order, so worker count only
	// changes wall-clock. Useful when Phase 2 is skipped and Phase 3 sees
	// 10⁴+ leaf entries.
	Workers int
}

// Result is the outcome of a k-means run.
type Result struct {
	// Centroids are the final cluster centers.
	Centroids []vec.Vector
	// Clusters holds the CF summary of each cluster (weights included).
	Clusters []cf.CF
	// Assignments maps input index to cluster index.
	Assignments []int
	// Iterations is the number of Lloyd passes executed.
	Iterations int
	// SSE is the final weighted sum of squared distances from item
	// centroids to their assigned centers.
	SSE float64
}

// Cluster runs weighted k-means over the items.
func Cluster(items []cf.CF, opts Options) (*Result, error) {
	if len(items) == 0 {
		return nil, errors.New("kmeans: no items")
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("kmeans: K must be positive, got %d", opts.K)
	}
	for i := range items {
		if items[i].N == 0 {
			return nil, fmt.Errorf("kmeans: item %d is empty", i)
		}
	}
	k := opts.K
	if k > len(items) {
		k = len(items)
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = 50
	}
	dim := items[0].Dim()

	// Precompute item centroids and weights.
	pts := make([]vec.Vector, len(items))
	wts := make([]float64, len(items))
	for i := range items {
		pts[i] = items[i].Centroid()
		wts[i] = float64(items[i].N)
	}

	var centers []vec.Vector
	if opts.InitialCentroids != nil {
		if len(opts.InitialCentroids) != k {
			return nil, fmt.Errorf("kmeans: %d initial centroids for K=%d",
				len(opts.InitialCentroids), k)
		}
		centers = make([]vec.Vector, k)
		for i, c := range opts.InitialCentroids {
			if c.Dim() != dim {
				return nil, fmt.Errorf("kmeans: initial centroid %d has dim %d, want %d",
					i, c.Dim(), dim)
			}
			centers[i] = c.Clone()
		}
	} else {
		centers = seedPlusPlus(pts, wts, k, rand.New(rand.NewSource(opts.Seed)))
	}

	assign := make([]int, len(items))
	for i := range assign {
		assign[i] = -1
	}

	// Lloyd scratch, allocated once and reused across iterations. The
	// assignment-and-accumulation pass runs over the fixed chunk grid of
	// assignChunk items: each chunk keeps private weighted sums (in item
	// order), folded in chunk-index order afterwards, so the iteration is
	// bit-identical for every Workers value — and, for inputs at or below
	// one chunk, identical to the plain sequential loop. The
	// nearest-center search goes through a Finder, whose answer is the
	// brute loop's bit for bit; each chunk runs under its own guard.
	n := len(pts)
	chunks := (n + assignChunk - 1) / assignChunk
	var finder Finder
	chunkSums := make([]vec.Vector, chunks*k)
	for i := range chunkSums {
		chunkSums[i] = vec.New(dim)
	}
	chunkWs := make([]float64, chunks*k)
	chunkChanged := make([]bool, chunks)
	sums := make([]vec.Vector, k)
	for c := range sums {
		sums[c] = vec.New(dim)
	}
	ws := make([]float64, k)

	res := &Result{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		finder.Reset(centers)
		forChunks(n, assignChunk, opts.Workers, func(c, lo, hi int) {
			csums := chunkSums[c*k : (c+1)*k]
			cws := chunkWs[c*k : (c+1)*k]
			for j := range csums {
				clear(csums[j])
				cws[j] = 0
			}
			ch := false
			var g guard
			for i := lo; i < hi; i++ {
				p := pts[i]
				best, _ := finder.nearest(p, &g)
				if assign[i] != best {
					assign[i] = best
					ch = true
				}
				s := csums[best]
				w := wts[i]
				for j := range p {
					s[j] += w * p[j]
				}
				cws[best] += w
			}
			chunkChanged[c] = ch
		})
		changed := false
		for c := 0; c < chunks; c++ {
			if chunkChanged[c] {
				changed = true
			}
		}
		// Recompute centers as weighted means: ordered chunk fold.
		for j := 0; j < k; j++ {
			clear(sums[j])
			ws[j] = 0
			for c := 0; c < chunks; c++ {
				sums[j].AddInPlace(chunkSums[c*k+j])
				ws[j] += chunkWs[c*k+j]
			}
		}
		var maxMove float64
		for c := 0; c < k; c++ {
			if ws[c] <= 0 {
				// Empty cluster: re-seed at the item farthest from its
				// center, the standard repair.
				centers[c] = pts[farthestItem(pts, centers, assign)].Clone()
				changed = true
				continue
			}
			newC := vec.Scale(sums[c], 1/ws[c])
			if mv := vec.SqDist(newC, centers[c]); mv > maxMove {
				maxMove = mv
			}
			centers[c] = newC
		}
		if !changed || (opts.Tol > 0 && maxMove <= opts.Tol) {
			break
		}
	}

	// Build output summaries from the final assignment.
	res.Centroids = centers
	res.Assignments = assign
	res.Clusters = make([]cf.CF, k)
	for c := range res.Clusters {
		res.Clusters[c] = cf.New(dim)
	}
	for i := range items {
		res.Clusters[assign[i]].Merge(&items[i])
		res.SSE += wts[i] * vec.SqDist(pts[i], centers[assign[i]])
	}
	return res, nil
}

// seedPlusPlus is weighted k-means++ initialization: the first center is
// drawn with probability proportional to weight, each later one with
// probability proportional to weight × squared distance to the nearest
// chosen center.
func seedPlusPlus(pts []vec.Vector, wts []float64, k int, r *rand.Rand) []vec.Vector {
	centers := make([]vec.Vector, 0, k)
	d2 := make([]float64, len(pts))

	var totalW float64
	for _, w := range wts {
		totalW += w
	}
	first := weightedPick(wts, totalW, r)
	centers = append(centers, pts[first].Clone())
	for i, p := range pts {
		d2[i] = vec.SqDist(p, centers[0])
	}

	for len(centers) < k {
		weights := make([]float64, len(pts))
		var sum float64
		for i := range pts {
			weights[i] = wts[i] * d2[i]
			sum += weights[i]
		}
		var next int
		if sum <= 0 {
			next = r.Intn(len(pts)) // all points coincide with centers
		} else {
			next = weightedPick(weights, sum, r)
		}
		c := pts[next].Clone()
		centers = append(centers, c)
		for i, p := range pts {
			if d := vec.SqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

// weightedPick draws an index with probability weights[i]/total.
func weightedPick(weights []float64, total float64, r *rand.Rand) int {
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// farthestItem returns the index of the item farthest from its assigned
// center; used to repair empty clusters.
func farthestItem(pts []vec.Vector, centers []vec.Vector, assign []int) int {
	best, bestD := 0, -1.0
	for i, p := range pts {
		c := assign[i]
		if c < 0 {
			return i
		}
		if d := vec.SqDist(p, centers[c]); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}
