// Package hc implements the agglomerative hierarchical clustering
// algorithm BIRCH uses as its global Phase 3 ("we adapted an agglomerative
// hierarchical clustering algorithm ... applied directly to the
// subclusters represented by their CF vectors", Section 5). Because every
// input item is a CF triple rather than a bare point, the algorithm is
// automatically the correctly weighted version: merging two items is CF
// addition, and any of the D0–D4 metrics can drive the merge order, with
// distances computed exactly from the merged summaries.
//
// The implementation keeps a full distance matrix plus a nearest-neighbor
// index per active cluster, giving O(m²) space and close to O(m²) time for
// m input subclusters — the paper's stated complexity for its Phase 3 and
// entirely acceptable because Phases 1–2 reduce m far below N.
package hc

import (
	"errors"
	"fmt"
	"math"

	"birch/internal/cf"
)

// Merge records one dendrogram step: active clusters A and B (by their
// current result-index) fused at the given metric distance.
type Merge struct {
	A, B     int
	Distance float64
}

// Options configures a clustering run. At least one stopping rule must be
// set; when both are set, merging stops as soon as either would be
// violated.
type Options struct {
	// K is the desired number of clusters; 0 means "no count target".
	K int
	// MaxDiameter stops merging when the best available merge would
	// produce a cluster whose diameter exceeds this bound; 0 disables it.
	// This is the paper's "desired diameter threshold" stopping rule.
	MaxDiameter float64
	// Metric is the D0–D4 distance driving merge order (BIRCH Phase 3
	// uses D2 or D4 per Section 5).
	Metric cf.Metric
}

// Result is the outcome of a clustering run.
type Result struct {
	// Clusters holds the CF summary of each final cluster.
	Clusters []cf.CF
	// Assignments maps each input index to its cluster index.
	Assignments []int
	// Dendrogram lists the merges performed, in order.
	Dendrogram []Merge
}

// Cluster agglomerates the given CF items under opts.
func Cluster(items []cf.CF, opts Options) (*Result, error) {
	if len(items) == 0 {
		return nil, errors.New("hc: no items")
	}
	if opts.K < 0 {
		return nil, fmt.Errorf("hc: negative K %d", opts.K)
	}
	if opts.K == 0 && opts.MaxDiameter <= 0 {
		return nil, errors.New("hc: need K or MaxDiameter as a stopping rule")
	}
	if !opts.Metric.Valid() {
		return nil, fmt.Errorf("hc: invalid metric %v", opts.Metric)
	}
	kind, dim := items[0].Kind(), items[0].Dim()
	for i := range items {
		if items[i].N == 0 {
			return nil, fmt.Errorf("hc: item %d is empty", i)
		}
		// The kernels assume one core and one dimension across every
		// pair, so a mixed input is rejected here, before any distance.
		if items[i].Kind() != kind || items[i].Dim() != dim {
			return nil, fmt.Errorf("hc: item %d is a %d-d %v CF, item 0 a %d-d %v CF",
				i, items[i].Dim(), items[i].Kind(), dim, kind)
		}
	}
	targetK := opts.K
	if targetK == 0 {
		targetK = 1 // merge until the diameter rule stops us
	}

	m := len(items)
	st := &state{
		clusters: make([]cf.CF, m),
		parent:   make([]int, m),
		active:   make([]bool, m),
		dist:     newMatrix(m),
		nn:       make([]int, m),
		nnDist:   make([]float64, m),
		q:        cf.NewQuery(dim),
		kernel:   cf.KernelForCore(opts.Metric, kind),
	}
	for i := range items {
		st.clusters[i] = items[i].Clone()
		st.parent[i] = i
		st.active[i] = true
	}
	st.initDistances()

	res := &Result{}
	activeCount := m
	for activeCount > targetK {
		a, b, d := st.bestMerge()
		if a < 0 {
			break // no mergeable pair left
		}
		if opts.MaxDiameter > 0 {
			md := cf.MergedDiameterSq(&st.clusters[a], &st.clusters[b])
			if md > opts.MaxDiameter*opts.MaxDiameter {
				break
			}
		}
		st.merge(a, b)
		res.Dendrogram = append(res.Dendrogram, Merge{A: a, B: b, Distance: d})
		activeCount--
	}

	// Compact the surviving clusters and resolve assignments through the
	// union-find forest.
	index := make(map[int]int)
	for i := 0; i < m; i++ {
		if st.active[i] {
			index[i] = len(res.Clusters)
			res.Clusters = append(res.Clusters, st.clusters[i])
		}
	}
	res.Assignments = make([]int, m)
	for i := 0; i < m; i++ {
		res.Assignments[i] = index[st.find(i)]
	}
	return res, nil
}

// state carries the mutable bookkeeping of one agglomeration run.
type state struct {
	clusters []cf.CF
	parent   []int // union-find: every input points at its absorbing cluster
	active   []bool
	dist     matrix
	nn       []int // nearest active neighbor per active cluster
	nnDist   []float64
	// q binds one cluster of a distance-matrix row; kernel is the metric's
	// pair distance. Every metric is bitwise symmetric in its operands,
	// so a row-bound kernel fills (i, j) and (j, i) with the same bits.
	q      *cf.Query
	kernel cf.Kernel
}

func (s *state) find(i int) int {
	for s.parent[i] != i {
		s.parent[i] = s.parent[s.parent[i]]
		i = s.parent[i]
	}
	return i
}

func (s *state) initDistances() {
	m := len(s.clusters)
	for i := 0; i < m-1; i++ {
		s.q.Bind(&s.clusters[i])
		for j := i + 1; j < m; j++ {
			s.dist.set(i, j, s.kernel(s.q, &s.clusters[j]))
		}
	}
	for i := 0; i < m; i++ {
		s.refreshNN(i)
	}
}

// refreshNN recomputes the nearest neighbor of active cluster i by a full
// scan of the active set.
func (s *state) refreshNN(i int) {
	s.nn[i] = -1
	s.nnDist[i] = math.Inf(1)
	for j := range s.clusters {
		if j == i || !s.active[j] {
			continue
		}
		if d := s.dist.get(i, j); d < s.nnDist[i] {
			s.nn[i], s.nnDist[i] = j, d
		}
	}
}

// bestMerge returns the active pair with minimum distance, or (-1,-1,0).
func (s *state) bestMerge() (int, int, float64) {
	best := -1
	bestD := math.Inf(1)
	for i := range s.clusters {
		if s.active[i] && s.nn[i] >= 0 && s.nnDist[i] < bestD {
			best, bestD = i, s.nnDist[i]
		}
	}
	if best < 0 {
		return -1, -1, 0
	}
	return best, s.nn[best], math.Sqrt(bestD)
}

// merge fuses cluster b into cluster a, updating distances and NN caches.
func (s *state) merge(a, b int) {
	s.clusters[a].Merge(&s.clusters[b])
	s.active[b] = false
	s.parent[b] = a

	// Recompute distances from the merged cluster to every active peer.
	s.q.Bind(&s.clusters[a])
	for j := range s.clusters {
		if j == a || !s.active[j] {
			continue
		}
		s.dist.set(a, j, s.kernel(s.q, &s.clusters[j]))
	}
	// NN caches: a changed; anyone whose NN was a or b must rescan;
	// everyone else can only get a better candidate from the new a.
	s.refreshNN(a)
	for j := range s.clusters {
		if j == a || !s.active[j] {
			continue
		}
		switch s.nn[j] {
		case a, b:
			s.refreshNN(j)
		default:
			if d := s.dist.get(a, j); d < s.nnDist[j] {
				s.nn[j], s.nnDist[j] = a, d
			}
		}
	}
}

// matrix is a compact symmetric distance matrix (squared distances).
type matrix struct {
	n int
	v []float64
}

func newMatrix(n int) matrix {
	return matrix{n: n, v: make([]float64, n*n)}
}

func (m matrix) set(i, j int, d float64) {
	m.v[i*m.n+j] = d
	m.v[j*m.n+i] = d
}

func (m matrix) get(i, j int) float64 { return m.v[i*m.n+j] }
