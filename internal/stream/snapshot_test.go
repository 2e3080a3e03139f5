package stream

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"birch/internal/core"
	"birch/internal/vec"
)

// goldenCopy deep-copies the observable surface of a snapshot so later
// mutations anywhere would be detectable by comparison.
type goldenCopy struct {
	gen       int64
	points    int64
	threshold float64
	centroids [][]float64
	subN      []int64
	subLS     [][]float64
	subSS     []float64
}

func copySnapshot(s *Snapshot) goldenCopy {
	g := goldenCopy{gen: s.Gen, points: s.Points, threshold: s.Threshold}
	for _, c := range s.Centroids {
		g.centroids = append(g.centroids, append([]float64(nil), c...))
	}
	for i := range s.Subclusters {
		g.subN = append(g.subN, s.Subclusters[i].N)
		g.subLS = append(g.subLS, append([]float64(nil), s.Subclusters[i].LS...))
		g.subSS = append(g.subSS, s.Subclusters[i].SS)
	}
	return g
}

func (g goldenCopy) equal(s *Snapshot) bool {
	if g.gen != s.Gen || g.points != s.Points || g.threshold != s.Threshold {
		return false
	}
	if len(g.centroids) != len(s.Centroids) || len(g.subN) != len(s.Subclusters) {
		return false
	}
	for i, c := range s.Centroids {
		for d := range c {
			if g.centroids[i][d] != c[d] {
				return false
			}
		}
	}
	for i := range s.Subclusters {
		if g.subN[i] != s.Subclusters[i].N || g.subSS[i] != s.Subclusters[i].SS {
			return false
		}
		for d := range s.Subclusters[i].LS {
			if g.subLS[i][d] != s.Subclusters[i].LS[d] {
				return false
			}
		}
	}
	return true
}

// TestSnapshotImmutableAcrossCompaction is satellite 5: a reader that
// grabbed a snapshot before further ingestion and compaction must keep
// seeing exactly the tree it grabbed — golden-asserted down to individual
// CF components and centroid coordinates — while new publications with
// higher generations appear alongside it.
func TestSnapshotImmutableAcrossCompaction(t *testing.T) {
	cfg := core.DefaultConfig(2, 6)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2, CompactInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	mkBatch := func(base, n int) []vec.Vector {
		batch := make([]vec.Vector, n)
		for i := range batch {
			g := base + i
			batch[i] = vec.Vector{float64(g % 127), float64((g * 17) % 131)}
		}
		return batch
	}

	if err := eng.InsertBatch(ctx, mkBatch(0, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	held := eng.Snapshot()
	if held == nil || held.Points != 2000 {
		t.Fatalf("held snapshot = %+v, want 2000 points", held)
	}
	golden := copySnapshot(held)

	// Concurrently ingest more data (driving the 1ms compactor) while a
	// verifier goroutine continuously re-checks the held snapshot against
	// its golden copy.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !golden.equal(held) {
				t.Error("held snapshot mutated during concurrent compaction")
				return
			}
		}
	}()
	for round := 0; round < 20; round++ {
		if err := eng.InsertBatch(ctx, mkBatch(2000+round*200, 200)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if !golden.equal(held) {
		t.Fatal("held snapshot mutated (final check)")
	}
	cur := eng.Snapshot()
	if cur.Gen <= held.Gen {
		t.Fatalf("current generation %d not past held generation %d", cur.Gen, held.Gen)
	}
	if cur.Points != 2000+20*200 {
		t.Fatalf("current snapshot covers %d points, want %d", cur.Points, 2000+20*200)
	}
	// The held snapshot keeps classifying with its old centroids.
	if _, _, ok := held.Classify(vec.Vector{3, 4}); !ok {
		t.Fatal("held snapshot cannot classify")
	}
}

// TestSnapshotNilBeforeFirstPublish pins the cold-start behavior of the
// lock-free read paths: before any Flush or compaction, reads answer
// "nothing yet" instead of blocking or panicking.
func TestSnapshotNilBeforeFirstPublish(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if s := eng.Snapshot(); s != nil {
		t.Fatalf("Snapshot before publish = %+v, want nil", s)
	}
	if _, _, ok := eng.Classify(vec.Vector{1, 2}); ok {
		t.Fatal("Classify reported ok before any publication")
	}
	if c := eng.Centroids(); c != nil {
		t.Fatalf("Centroids before publish = %v, want nil", c)
	}
	st := eng.Stats()
	if st.Generation != 0 || st.Published != 0 {
		t.Fatalf("Stats before publish = %+v, want zero generation/published", st)
	}
}

// TestSnapshotClassifyAllocs is the dynamic half of the serving-path
// zero-allocation contract: Engine.Classify and Snapshot.Classify carry
// //birchlint:hotpath (snapshot.go), so the static hotpath pass rejects
// allocation-inducing constructs there, and this AllocsPerRun gate
// proves the compiled steady state matches.
func TestSnapshotClassifyAllocs(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	batch := make([]vec.Vector, 2000)
	for i := range batch {
		batch[i] = vec.Vector{float64(i % 127), float64((i * 17) % 131)}
	}
	if err := eng.InsertBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap == nil || len(snap.Centroids) == 0 {
		t.Fatal("no centroids after flush")
	}

	q := vec.Vector{3, 4}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, _, ok := snap.Classify(q); !ok {
			t.Fatal("snapshot Classify not ok")
		}
	}); allocs != 0 {
		t.Errorf("Snapshot.Classify allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, _, ok := eng.Classify(q); !ok {
			t.Fatal("engine Classify not ok")
		}
	}); allocs != 0 {
		t.Errorf("Engine.Classify allocates %v per call, want 0", allocs)
	}
}

// TestSnapshotClassifyBatch pins the batch serving path to the scalar
// one on a published snapshot, for several worker counts, and checks the
// pre-publication ok=false contract.
func TestSnapshotClassifyBatch(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	queries := make([]vec.Vector, 300)
	for i := range queries {
		queries[i] = vec.Vector{float64(i % 97), float64((i * 13) % 89)}
	}

	if _, _, ok := eng.ClassifyBatch(queries, 4); ok {
		t.Fatal("ClassifyBatch reported ok before any publication")
	}

	batch := make([]vec.Vector, 2000)
	for i := range batch {
		batch[i] = vec.Vector{float64(i % 127), float64((i * 17) % 131)}
	}
	if err := eng.InsertBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	snap := eng.Snapshot()
	if snap == nil || len(snap.Centroids) == 0 {
		t.Fatal("no centroids after flush")
	}
	for _, w := range []int{1, 2, 8} {
		idx, dist, ok := snap.ClassifyBatch(queries, w)
		if !ok {
			t.Fatalf("W=%d: batch not ok on a published snapshot", w)
		}
		for i, q := range queries {
			wi, wd, wok := snap.Classify(q)
			if !wok || idx[i] != wi || math.Float64bits(dist[i]) != math.Float64bits(wd) {
				t.Fatalf("W=%d query %d: batch (%d,%x), scalar (%d,%x, ok=%v)", w, i,
					idx[i], math.Float64bits(dist[i]), wi, math.Float64bits(wd), wok)
			}
		}
	}

	// The engine-level passthrough serves the same snapshot.
	idx, dist, ok := eng.ClassifyBatch(queries, 4)
	if !ok {
		t.Fatal("engine ClassifyBatch not ok after flush")
	}
	for i, q := range queries {
		wi, wd, _ := snap.Classify(q)
		if idx[i] != wi || math.Float64bits(dist[i]) != math.Float64bits(wd) {
			t.Fatalf("engine batch query %d: (%d,%x), want (%d,%x)", i,
				idx[i], math.Float64bits(dist[i]), wi, math.Float64bits(wd))
		}
	}
}

// TestSnapshotClassifyNonFiniteQueries: a query whose every centroid
// distance is +Inf or NaN gets the same (index, distance) through
// Classify and ClassifyBatch, on a snapshot with a packed finder (as the
// engine publishes) and on one built without: centroid 0, by the
// first-centroid-seeds rule every nearest-centroid path shares — never
// index −1, which a caller indexing Centroids would panic on.
func TestSnapshotClassifyNonFiniteQueries(t *testing.T) {
	centroids := []vec.Vector{vec.Of(0, 0), vec.Of(1, 1)}
	queries := []vec.Vector{
		vec.Of(math.Inf(1), 0),
		vec.Of(math.NaN(), 0),
		vec.Of(math.Inf(-1), math.Inf(1)),
	}
	bare := &Snapshot{Centroids: centroids}
	packed := &Snapshot{Centroids: centroids}
	packed.buildFinder()
	for name, s := range map[string]*Snapshot{"bare": bare, "packed": packed} {
		idxs, dists, ok := s.ClassifyBatch(queries, 1)
		if !ok {
			t.Fatalf("%s: ClassifyBatch not ok", name)
		}
		for i, q := range queries {
			idx, dist, ok := s.Classify(q)
			if !ok || idx != 0 || idx != idxs[i] ||
				math.Float64bits(dist) != math.Float64bits(dists[i]) {
				t.Errorf("%s query %v: Classify (%d, %v, %v), ClassifyBatch (%d, %v); want index 0 from both",
					name, q, idx, dist, ok, idxs[i], dists[i])
			}
		}
	}
}

// TestSnapshotClassifyTiesAgreeWithBatch: on a snapshot built without a
// packed finder, Classify and ClassifyBatch pick the same centroid for
// queries exactly between two centroids, also at K = 64, where the
// finder's certified search answers most queries: its certificate must
// break exact ties by lowest index, as the brute loop does.
func TestSnapshotClassifyTiesAgreeWithBatch(t *testing.T) {
	var centroids, queries []vec.Vector
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			centroids = append(centroids, vec.Of(float64(2*i), float64(2*j)))
			if i < 7 {
				queries = append(queries, vec.Of(float64(2*i+1), float64(2*j)))
			}
		}
	}
	s := &Snapshot{Centroids: centroids}
	idxs, dists, _ := s.ClassifyBatch(queries, 2)
	for i, q := range queries {
		idx, dist, _ := s.Classify(q)
		if idx != idxs[i] || math.Float64bits(dist) != math.Float64bits(dists[i]) {
			t.Errorf("query %v: Classify (%d, %v), ClassifyBatch (%d, %v)", q, idx, dist, idxs[i], dists[i])
		}
	}
}
