package core

import (
	"testing"

	"birch/internal/vec"
)

// TestEngineAddAbsorbAllocs extends the tree-level allocation gate to the
// full streaming entry point: Engine.Add → Tree.Insert must not allocate
// on the absorb path. This is what makes Phase 1's single scan CPU-cheap
// at scale — the steady state of a converged tree generates no garbage,
// so the collector never interrupts the scan. Static half: Add and AddCF
// carry //birchlint:hotpath (phase1.go), so the hotpath pass rejects
// allocating constructs before this gate ever runs.
func TestEngineAddAbsorbAllocs(t *testing.T) {
	cfg := DefaultConfig(2, 4)
	cfg.Memory = 4 << 20
	cfg.InitialThreshold = 50
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Warm up: separated clusters, then one fixed point until routing
	// settles (see cftree's TestInsertAbsorbAllocs for why).
	for i := 0; i < 64; i++ {
		if err := eng.Add(vec.Of(float64(i%8)*1000, float64(i/8)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	pt := vec.Of(3000, 4000)
	for i := 0; i < 200; i++ {
		if err := eng.Add(pt); err != nil {
			t.Fatal(err)
		}
	}

	leavesBefore := eng.Tree().LeafEntries()
	allocs := testing.AllocsPerRun(500, func() {
		if err := eng.Add(pt); err != nil {
			t.Fatal(err)
		}
	})
	if got := eng.Tree().LeafEntries(); got != leavesBefore {
		t.Fatalf("leaf entries grew %d -> %d; measured inserts were not absorbs", leavesBefore, got)
	}
	if allocs > 0 {
		t.Fatalf("Engine.Add absorb path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEngineAddDoesNotRetainScratch guards the ownership contract behind
// the scratch-CF optimization: a point spilled to the outlier buffer
// under delay-split must be a deep copy, not an alias of the reusable
// scratch whose contents the next Add overwrites.
func TestEngineAddDoesNotRetainScratch(t *testing.T) {
	cfg := DefaultConfig(2, 2)
	cfg.Memory = cfg.PageSize // one page: memory is full immediately
	cfg.InitialThreshold = 0.1
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the single page, then keep streaming distinct far-apart
	// points; with delay-split on, further points spill to the buffer.
	for i := 0; i < 200; i++ {
		if err := eng.Add(vec.Of(float64(i)*100, float64(i)*100)); err != nil {
			t.Fatal(err)
		}
	}
	if eng.FinishPhase1().OutlierSpills == 0 {
		t.Skip("workload produced no spills; retention path not exercised")
	}
	// Conservation check: rebuilds may merge entries, but the linear sum
	// over the tree must equal the sum over the input. If the outlier
	// buffer had aliased the scratch, every spilled entry would have
	// collapsed onto the last streamed point — mass would still match,
	// but the linear sum would not.
	var mass int64
	var ls0 float64
	for _, c := range eng.Tree().LeafCFs() {
		mass += c.N
		ls0 += c.LS[0]
	}
	var want float64
	for i := 0; i < 200; i++ {
		want += float64(i) * 100
	}
	if mass != 200 {
		t.Fatalf("mass %d after finish, want 200", mass)
	}
	if diff := ls0 - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("linear sum %g, want %g; spilled entries were aliased", ls0, want)
	}
}

// TestEngineAddPointsAbsorbAllocs extends the Engine.Add gate to the
// Phase 1 data scan of Run and RunParallel: addPoints, with its grouped
// look-ahead loads (vec.LoadAhead), must not allocate on the absorb path
// either. Static half: addPoints and vec.LoadAhead carry
// //birchlint:hotpath.
func TestEngineAddPointsAbsorbAllocs(t *testing.T) {
	cfg := DefaultConfig(2, 4)
	cfg.Memory = 4 << 20
	cfg.InitialThreshold = 50
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := eng.Add(vec.Of(float64(i%8)*1000, float64(i/8)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	// Three look-ahead groups and a ragged tail of one fixed point.
	batch := make([]vec.Vector, 3*vec.LookAheadGroup+5)
	for i := range batch {
		batch[i] = vec.Of(3000, 4000)
	}
	for i := 0; i < 5; i++ {
		if err := eng.addPoints(batch); err != nil {
			t.Fatal(err)
		}
	}

	leavesBefore := eng.Tree().LeafEntries()
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.addPoints(batch); err != nil {
			t.Fatal(err)
		}
	})
	if got := eng.Tree().LeafEntries(); got != leavesBefore {
		t.Fatalf("leaf entries grew %d -> %d; measured inserts were not absorbs", leavesBefore, got)
	}
	if allocs > 0 {
		t.Fatalf("Engine.addPoints absorb path allocates %.1f allocs/op, want 0", allocs)
	}
}
