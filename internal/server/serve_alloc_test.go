package server

import (
	"context"
	"runtime"
	"testing"

	"birch/internal/core"
	"birch/internal/dataset"
	"birch/internal/stream"
	"birch/internal/vec"
)

// serveAllocBudget is the most a binary insert or classify request may
// allocate, server and client together, in TestServeRequestAllocBudget.
// Without pooled request buffers a 64-point d = 16 request allocated
// about 75 KB; with them, about 14 KB, of which net/http's own share is
// about 6 KB (go1.24). The bound leaves room for other Go releases.
const serveAllocBudget = 24 << 10

// TestServeRequestAllocBudget gates the bytes a steady-state binary
// request allocates, in process and on loopback, at d = 16 with 64-point
// frames: dense insert and classify, each through its own Client, and a
// sparse-frame insert. Each case sends 500 warm-up requests, then
// averages runtime.MemStats.TotalAlloc over 2,000 measured ones. What is
// left is net/http's share and the engine's mailbox copy of each insert.
func TestServeRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds drop a quarter of sync.Pool.Puts by design; the budget assumes pooled buffers")
	}
	const dim, batch, warm, measured = 16, 64, 500, 2000
	cfg := core.DefaultConfig(dim, 32)
	eng, err := stream.New(cfg, stream.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, shutdown := serve(t, New(EngineBackend{Eng: eng, Cfg: cfg}, Options{}))
	defer shutdown()
	ctx := context.Background()

	pool := dataset.GaussianMixture(dim, 32, 100, 8, 1, 1001).Points
	sparse, _ := dataset.SparseDocs(dim, 8, 400, 4, 1.1, 1001)
	// The pool cycles, so after the first pass the trees absorb every
	// point and the engine allocates only its mailbox copy.
	nth := func(k int) []vec.Vector {
		i := k % (len(pool) / batch) * batch
		return pool[i : i+batch]
	}
	nthSparse := func(k int) []vec.Sparse {
		i := k % (len(sparse) / batch) * batch
		return sparse[i : i+batch]
	}
	perRequest := func(name string, do func(k int) error) {
		t.Helper()
		for k := 0; k < warm; k++ {
			if err := do(k); err != nil {
				t.Fatalf("%s warm-up request %d: %v", name, k, err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := warm; k < warm+measured; k++ {
			if err := do(k); err != nil {
				t.Fatalf("%s request %d: %v", name, k, err)
			}
		}
		runtime.ReadMemStats(&m1)
		got := float64(m1.TotalAlloc-m0.TotalAlloc) / measured
		t.Logf("%s: %.0f B and %.1f allocations per request", name, got, float64(m1.Mallocs-m0.Mallocs)/measured)
		if got > serveAllocBudget {
			t.Errorf("%s: %.0f B per request, budget %d", name, got, serveAllocBudget)
		}
	}

	ins := NewClient("http://" + addr)
	perRequest("dense insert", func(k int) error {
		_, err := ins.InsertBatch(ctx, nth(k), dim)
		return err
	})
	perRequest("sparse insert", func(k int) error {
		_, err := ins.InsertSparseBatch(ctx, nthSparse(k), dim)
		return err
	})
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	cls := NewClient("http://" + addr)
	perRequest("dense classify", func(k int) error {
		_, _, err := cls.ClassifyBatch(ctx, nth(k), dim)
		return err
	})
}
