package stream

import (
	"context"
	"sync"
	"testing"
	"time"

	"birch/internal/core"
	"birch/internal/vec"
)

// TestStressWritersReadersCompactor is the headline race/stress test of
// the streaming engine: N writer goroutines insert concurrently with M
// reader goroutines (lock-free Classify/Centroids/Stats/Snapshot), a
// fast background compactor, and a goroutine that exercises the live
// CheckInvariants path. After the writers quiesce it asserts exact mass
// conservation — every accepted point is present in the published
// snapshot — and re-checks every shard tree's structural invariants both
// live and after Close. Run under -race (the CI race gate does), this is
// the test that pins the engine's entire synchronization design.
func TestStressWritersReadersCompactor(t *testing.T) {
	cfg := core.DefaultConfig(2, 8)
	cfg.Refine = false
	eng, err := New(cfg, Options{
		Shards:          4,
		MailboxDepth:    64,
		CompactInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 4
		readers      = 3
		perWriter    = 3000
		batchSize    = 16
		totalPoints  = writers * perWriter
		checkEveryMs = 5
	)
	ctx := context.Background()
	stop := make(chan struct{})
	var readerWG sync.WaitGroup

	// Readers: hammer every lock-free read path for the test's duration.
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			p := vec.Vector{0, 0}
			var lastGen int64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p[0], p[1] = float64(i%100), float64((i*13)%100)
				_, _, _ = eng.Classify(p)
				_ = eng.Centroids()
				st := eng.Stats()
				if st.Generation < lastGen {
					t.Errorf("snapshot generation went backwards: %d -> %d", lastGen, st.Generation)
					return
				}
				lastGen = st.Generation
				if s := eng.Snapshot(); s != nil {
					// A published snapshot must always be internally
					// consistent, no matter when it is observed.
					var mass int64
					for j := range s.Subclusters {
						mass += s.Subclusters[j].N
					}
					if mass != s.Points {
						t.Errorf("snapshot gen %d: subcluster mass %d != points %d", s.Gen, mass, s.Points)
						return
					}
				}
			}
		}(r)
	}

	// Invariant checker: exercises the mailbox check path while writers
	// and the compactor are active.
	checkerDone := make(chan struct{})
	go func() {
		defer close(checkerDone)
		tick := time.NewTicker(checkEveryMs * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := eng.CheckInvariants(); err != nil {
					t.Errorf("live CheckInvariants: %v", err)
					return
				}
			}
		}
	}()

	// Writers: each streams its own deterministic slice of the input,
	// mixing single inserts and batches to cover both send paths.
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			base := w * perWriter
			batch := make([]vec.Vector, 0, batchSize)
			for i := 0; i < perWriter; i++ {
				g := base + i
				p := vec.Vector{float64(g % 211), float64((g * 7) % 193)}
				if i%3 == 0 {
					if err := eng.Insert(ctx, p); err != nil {
						t.Errorf("writer %d: Insert: %v", w, err)
						return
					}
					continue
				}
				batch = append(batch, p)
				if len(batch) == batchSize {
					if err := eng.InsertBatch(ctx, batch); err != nil {
						t.Errorf("writer %d: InsertBatch: %v", w, err)
						return
					}
					batch = batch[:0]
				}
			}
			if err := eng.InsertBatch(ctx, batch); err != nil {
				t.Errorf("writer %d: final InsertBatch: %v", w, err)
			}
		}(w)
	}

	writerWG.Wait()

	// Quiesce: Flush drains every mailbox and publishes; the snapshot must
	// now account for every accepted point exactly.
	if err := eng.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	snap := eng.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot after Flush")
	}
	if snap.Points != totalPoints {
		t.Fatalf("snapshot covers %d points, want %d (mass lost or duplicated)", snap.Points, totalPoints)
	}
	if got := eng.Stats().Inserted; got != totalPoints {
		t.Fatalf("Inserted = %d, want %d", got, totalPoints)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after quiesce: %v", err)
	}

	close(stop)
	readerWG.Wait()
	<-checkerDone

	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Post-Close: direct (inline) invariant checks on every shard tree
	// plus the final snapshot's accounting.
	if err := eng.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after Close: %v", err)
	}
	final := eng.Snapshot()
	if final.Points != totalPoints {
		t.Fatalf("final snapshot covers %d points, want %d", final.Points, totalPoints)
	}
	// Reads stay valid after Close.
	if _, _, ok := eng.Classify(vec.Vector{1, 1}); !ok {
		t.Fatal("Classify not usable after Close")
	}
	if err := eng.Insert(ctx, vec.Vector{1, 1}); err != ErrClosed {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
}

// TestCloseUnblocksBackpressuredWriter pins the shutdown protocol: a
// writer blocked on a full mailbox must be woken by Close and see
// ErrClosed, not deadlock.
func TestCloseUnblocksBackpressuredWriter(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 1, MailboxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the single mailbox with more sends than the worker can
	// drain instantly, then Close concurrently. Every Insert must return
	// (nil or ErrClosed) and Close must complete.
	errs := make(chan error, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				errs <- eng.Insert(context.Background(), vec.Vector{float64(w), float64(i)})
			}
		}(w)
	}
	time.Sleep(time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- eng.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked against backpressured writers")
	}
	wg.Wait()
	close(errs)
	accepted := int64(0)
	for err := range errs {
		switch err {
		case nil:
			accepted++
		case ErrClosed:
		default:
			t.Fatalf("Insert returned unexpected error: %v", err)
		}
	}
	if got := eng.Snapshot().Points; got != accepted {
		t.Fatalf("final snapshot covers %d points, %d were accepted", got, accepted)
	}
}

// TestContextCancelUnblocksWriter: a writer blocked on backpressure with
// a cancellable context must return ctx.Err() when cancelled.
func TestContextCancelUnblocksWriter(t *testing.T) {
	cfg := core.DefaultConfig(2, 4)
	cfg.Refine = false
	eng, err := New(cfg, Options{Shards: 1, MailboxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error, 128)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				blocked <- eng.Insert(ctx, vec.Vector{float64(w), float64(i)})
			}
		}(w)
	}
	time.Sleep(time.Millisecond)
	cancel()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled writers did not unblock")
	}
	close(blocked)
	for err := range blocked {
		if err != nil && err != context.Canceled {
			t.Fatalf("Insert = %v, want nil or context.Canceled", err)
		}
	}
}
