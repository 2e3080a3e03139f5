package kmeans

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"birch/internal/cf"
	"birch/internal/kdtree"
	"birch/internal/vec"
)

// nbrLen is the length m of the neighbour list a Finder keeps per
// centroid: the m in its O(K·m) memory. The search runs only where K is
// well above m (see the budget), so a list is always a strict prefix of
// the centroids in distance order.
const nbrLen = 8

// scanRatio is what one distance the search evaluates costs, in
// candidates of the fused scan: a lone one-accumulator sum over a row
// found by index, against the scan's four lanes streaming a contiguous
// slab (BenchmarkFinder). It prices the search for its budget and its
// guard.
const scanRatio = 4

// Finder locates the nearest centroid among a fixed set. Every query
// returns exactly what NearestBrute returns — the same index and the
// same distance bits, lowest-index ties included — whichever way it is
// answered:
//
//   - A greedy k-d descent (kdtree.NearestOnPath) guesses a centroid r.
//   - r's neighbour list, its nearest centroids sorted by centroid–
//     centroid squared distance D(r,c), certifies r by the triangle
//     inequality: a neighbour with D(r,c) > 4·D(x,r)·(1+η) + τ is
//     strictly farther from x than r is, in computed distances, and so
//     is every centroid after it on the list or off it (DESIGN.md §11
//     derives the rounding margin η, τ).
//   - A neighbour before that point is compared directly; the first one
//     closer to x, or as close with a lower index, becomes r and is
//     certified in turn.
//   - The query falls back to the fused scan (cf.ScanNearestX0) when a
//     certificate runs off the end of a list, overruns the budget, or
//     meets a non-finite distance.
//
// The budget is fixed per centroid set: a search may spend at most one
// scan's worth — K candidates, at scanRatio per distance it evaluates,
// the descent's path included — before it scans, so a query costs at
// most about twice the scan. Where even the descent would cost a scan
// (K/scanRatio ≤ pathLen, which holds for K < 24) every query scans.
//
// The batch paths (Assigner, Lloyd iteration, NearestBatch) add a
// per-chunk guard that scans whole stretches of queries while the
// search costs more than the scan would (guard). No result depends on
// which path answers.
//
// Construction packs the centroids once, so the per-query cost is pure
// search. A Finder is safe for concurrent Nearest calls once built;
// Reset must not race with queries.
type Finder struct {
	centroids []vec.Vector
	// block is the flat centroid slab (x0 alone): the fallback scan's
	// operand and the rows the certificate compares against.
	block *cf.Block
	kd    kdtree.Tree
	// nbr and nd hold m entries per centroid, row r at [r·m, r·m+m):
	// r's nearest other centroids and their squared distances to r,
	// ascending.
	m   int
	nbr []int32
	nd  []float64
	// pathLen is the node count of a root-to-leaf descent, the guess's
	// cost in distances; budget is how many more the certificates may
	// evaluate.
	pathLen, budget int
	// slack = 1+η and tau = τ are the certificate's rounding margin for
	// this dimension.
	slack, tau float64
	// scanOnly is set when the budget leaves no room for a certificate,
	// or when some centroid–centroid distance is not finite (a
	// non-finite coordinate, or an overflowing one) and no list can be
	// trusted: every query scans.
	scanOnly bool
}

// NewFinder builds a Finder over centroids. The slice is referenced, not
// copied; callers must not mutate the centroids while querying.
func NewFinder(centroids []vec.Vector) *Finder {
	f := &Finder{}
	f.Reset(centroids)
	return f
}

// Reset re-points the finder at a new centroid set. It costs O(K²·d)
// time — every centroid pair's distance, each kept in the two lists it
// belongs to — and O(K·(m+d)) memory, and at an unchanged K and
// dimension it reuses the slab, the k-d arena and the lists, so
// re-packing K moving centroids between Lloyd iterations or refinement
// passes performs zero heap allocations.
//
//birchlint:coldpath
func (f *Finder) Reset(centroids []vec.Vector) {
	if len(centroids) == 0 {
		panic("kmeans: Finder with no centroids")
	}
	k := len(centroids)
	dim := centroids[0].Dim()
	f.centroids = centroids
	if f.block == nil || f.block.Dim() != dim {
		f.block = cf.NewCentroidBlock(dim, k)
	} else {
		f.block.Truncate(0)
	}
	for _, c := range centroids {
		f.block.AppendPoint(c)
	}
	f.m = min(k-1, nbrLen)
	f.pathLen = bits.Len(uint(k))
	f.budget = k/scanRatio - f.pathLen
	f.slack = 1 + float64(dim+2)*0x1p-51
	f.tau = float64(dim) * 0x1p-1071
	f.scanOnly = f.budget < 1 || !f.buildLists()
	if !f.scanOnly {
		f.kd.Reset(centroids)
	}
}

// buildLists fills every centroid's neighbour list from the K(K−1)/2
// pair distances, computed once each by vec.SqDist. It reports false,
// leaving the lists unusable, as soon as a pair distance is not finite.
// Each row starts as m +Inf placeholders and is offered K−1 ≥ m finite
// distances, so none survives.
func (f *Finder) buildLists() bool {
	k, m := len(f.centroids), f.m
	f.nbr = resize(f.nbr, k*m)
	f.nd = resize(f.nd, k*m)
	for i := range f.nd {
		f.nd[i] = math.Inf(1)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := vec.SqDist(f.centroids[i], f.centroids[j])
			if !(d <= math.MaxFloat64) {
				return false
			}
			f.list(i, j, d)
			f.list(j, i, d)
		}
	}
	return true
}

// list offers centroid c at squared distance d to r's list, which keeps
// the m smallest distances in ascending order.
func (f *Finder) list(r, c int, d float64) {
	base, n := r*f.m, f.m-1
	if !(d < f.nd[base+n]) {
		return
	}
	for ; n > 0 && d < f.nd[base+n-1]; n-- {
		f.nd[base+n] = f.nd[base+n-1]
		f.nbr[base+n] = f.nbr[base+n-1]
	}
	f.nd[base+n] = d
	f.nbr[base+n] = int32(c)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// K returns the number of centroids indexed.
func (f *Finder) K() int { return len(f.centroids) }

// Nearest returns the index of the centroid closest to p and the squared
// Euclidean distance to it: NearestBrute's answer, bit for bit.
//
//birchlint:hotpath
func (f *Finder) Nearest(p vec.Vector) (int, float64) {
	if !f.scanOnly {
		if i, d, _, ok := f.search(p); ok {
			return i, d
		}
	}
	return cf.ScanNearestX0(p, f.block)
}

// search answers q by guess and certificate. ok = false means the
// certificate did not close — it ran off the end of a list, overran the
// budget, or the guess's distance was not finite — and the caller must
// scan. evals counts the candidate distances the certificates evaluated.
//
// A guess distance that is not finite (x has a NaN or ±Inf coordinate,
// or a difference overflows) scans at once: no neighbour can pass the
// test against it. Otherwise x is finite, and since the centroids' pair
// distances are finite (buildLists) no other distance can be NaN; one
// that overflows to +Inf loses every comparison, as in the brute loop.
//
//birchlint:hotpath
func (f *Finder) search(q vec.Vector) (best int, bestD float64, evals int, ok bool) {
	r, dr := f.kd.NearestOnPath(q)
	if !(dr <= math.MaxFloat64) {
		return 0, 0, 0, false
	}
	m := f.m
next:
	for {
		bound := 4*dr*f.slack + f.tau
		row := r * m
		for j := 0; j < m; j++ {
			if f.nd[row+j] > bound {
				return r, dr, evals, true
			}
			if evals == f.budget {
				return r, dr, evals, false
			}
			evals++
			c := int(f.nbr[row+j])
			if dc, ok := vec.SqDistWithin(q, f.block.Centroid(c), dr); dc < dr || (c < r && ok) {
				r, dr = c, dc
				continue next
			}
		}
		return r, dr, evals, false
	}
}

// guardWindow is how many searched queries the guard weighs at a time.
const guardWindow = 32

// guardMaxSkip caps how many queries the guard scans before it tries
// the search again.
const guardMaxSkip = 1024

// guard is the batch paths' per-chunk switch between the certified
// search and the plain scan. It keeps a ledger of what the search cost
// over each window of guardWindow searched queries, in candidates of the
// fused scan — scanRatio per distance of the descent's path and of the
// certificates, plus the full K of every query that fell back — and when
// a window cost more than scanning it would have (K per query), it scans
// the next stretch of queries outright: twice the window, doubling after
// every further costly window up to guardMaxSkip, and back to searching
// after a cheap one. The rule observes only the queries and the
// centroids, and both paths return NearestBrute's answer, so no result
// depends on it. The zero value starts by searching.
type guard struct {
	searched, cost int // this window: queries searched, their cost
	skip, backoff  int // queries left to scan; the last skip length
}

// nearest answers p like Finder.Nearest, under the guard g.
//
//birchlint:hotpath
func (f *Finder) nearest(p vec.Vector, g *guard) (int, float64) {
	if f.scanOnly {
		return cf.ScanNearestX0(p, f.block)
	}
	if g.skip > 0 {
		g.skip--
		return cf.ScanNearestX0(p, f.block)
	}
	i, d, evals, ok := f.search(p)
	k := len(f.centroids)
	g.cost += scanRatio * (f.pathLen + evals)
	if !ok {
		g.cost += k
	}
	if g.searched++; g.searched == guardWindow {
		if g.cost > guardWindow*k {
			g.backoff = min(max(2*g.backoff, 2*guardWindow), guardMaxSkip)
			g.skip = g.backoff
		} else {
			g.backoff = 0
		}
		g.searched, g.cost = 0, 0
	}
	if ok {
		return i, d
	}
	return cf.ScanNearestX0(p, f.block)
}

// NearestBrute is the reference nearest-centroid loop: the index of the
// centroid closest to p and the squared Euclidean distance to it, by
// vec.SqDist over every centroid in order. The first centroid seeds the
// minimum and a later one replaces it only when strictly closer, the
// fused scan's rule (cf.ScanNearestX0): ties keep the lowest index, and
// when every distance is +Inf or NaN the answer is centroid 0 with its
// distance, never "no centroid". centroids must be non-empty.
//
//birchlint:hotpath
func NearestBrute(centroids []vec.Vector, p vec.Vector) (int, float64) {
	best, bestD := 0, vec.SqDist(p, centroids[0])
	for c := 1; c < len(centroids); c++ {
		if d := vec.SqDist(p, centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// NearestBatch fills idx[i], sqDist[i] with the nearest centroid of
// points[i] and the squared distance to it, fanning the search out
// across at most workers goroutines, each chunk under its own guard.
// Outputs are per-point with no cross-point reduction, so the result is
// identical for every worker count. idx and sqDist must be at least
// len(points) long.
func (f *Finder) NearestBatch(points []vec.Vector, idx []int, sqDist []float64, workers int) {
	forChunks(len(points), assignChunk, workers, func(_, lo, hi int) {
		if f.scanOnly {
			for i := lo; i < hi; i++ {
				idx[i], sqDist[i] = cf.ScanNearestX0(points[i], f.block)
			}
			return
		}
		var g guard
		for i := lo; i < hi; i++ {
			idx[i], sqDist[i] = f.nearest(points[i], &g)
		}
	})
}

// forChunks invokes fn(chunk, lo, hi) for every fixed-width chunk of n
// items, fanning the chunks out across at most workers goroutines via a
// shared work-stealing counter. The chunk grid depends only on n and
// chunkSize — never on workers — which is what lets chunk-indexed
// reductions stay bit-identical for every worker count. With one worker
// (or one chunk) the chunks run inline on the calling goroutine, in
// order, with no goroutine or closure overhead beyond fn itself.
func forChunks(n, chunkSize, workers int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := (n + chunkSize - 1) / chunkSize
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			lo := c * chunkSize
			fn(c, lo, min(lo+chunkSize, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * chunkSize
				fn(c, lo, min(lo+chunkSize, n))
			}
		}()
	}
	wg.Wait()
}
