package stream

import (
	"context"
	"testing"
	"time"

	"birch/internal/core"
	"birch/internal/vec"
)

// FuzzStreamInsertClose drives the engine with an arbitrary interleaved
// tape of Insert / InsertBatch / Flush / Classify / CheckInvariants /
// Close operations decoded from the fuzz input. The properties under
// test:
//
//   - no tape may panic or deadlock (a watchdog goroutine enforces a
//     hard wall-clock bound);
//   - operations after Close fail cleanly with ErrClosed;
//   - CF mass is conserved: after the final Close, the published
//     snapshot accounts for exactly the points the engine accepted.
//
// The tape bytes choose the op and its size, so the fuzzer explores
// close-during-backpressure, flush-after-close, double-close and other
// interleavings the hand-written tests fix only single instances of.
func FuzzStreamInsertClose(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x12, 0x83, 0x24, 0xff})       // insert/flush mix, close tail
	f.Add([]byte{0xff, 0x00, 0x10, 0xff})                   // close first, ops after
	f.Add([]byte{0x21, 0x21, 0x83, 0x21, 0x64, 0x45, 0x21}) // flush/classify heavy
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}) // small insert storm
	f.Add([]byte{0xa1, 0xb2, 0xc3, 0xff, 0xff, 0x01, 0x83}) // double close, late ops

	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 256 {
			tape = tape[:256] // bound per-exec work so the fuzz budget explores widely
		}
		cfg := core.DefaultConfig(2, 4)
		cfg.Refine = false
		cfg.Memory = 16 << 10 // small budget: rebuilds fire even on short tapes
		eng, err := New(cfg, Options{Shards: 2, MailboxDepth: 4, CompactInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}

		// Watchdog: any deadlock in the tape (blocked send, stuck Close,
		// flush against a dead worker) trips this instead of hanging the
		// whole fuzz run.
		done := make(chan struct{})
		watchdog := time.AfterFunc(30*time.Second, func() {
			panic("stream fuzz: tape deadlocked (watchdog fired)")
		})
		defer func() {
			close(done)
			watchdog.Stop()
		}()

		ctx := context.Background()
		closed := false
		var seq int
		nextPoint := func() vec.Vector {
			seq++
			return vec.Vector{float64(seq % 97), float64((seq * 31) % 89)}
		}

		for _, b := range tape {
			switch b % 8 {
			case 0, 1, 2: // single insert
				err := eng.Insert(ctx, nextPoint())
				if closed && err != ErrClosed {
					t.Fatalf("Insert after Close = %v, want ErrClosed", err)
				}
				if !closed && err != nil {
					t.Fatalf("Insert: %v", err)
				}
			case 3, 4: // batch insert, size from the high bits
				n := int(b>>3)%7 + 1
				batch := make([]vec.Vector, n)
				for i := range batch {
					batch[i] = nextPoint()
				}
				err := eng.InsertBatch(ctx, batch)
				if closed && err != ErrClosed {
					t.Fatalf("InsertBatch after Close = %v, want ErrClosed", err)
				}
				if !closed && err != nil {
					t.Fatalf("InsertBatch: %v", err)
				}
			case 5: // flush
				err := eng.Flush(ctx)
				if closed && err != ErrClosed {
					t.Fatalf("Flush after Close = %v, want ErrClosed", err)
				}
				if !closed && err != nil {
					t.Fatalf("Flush: %v", err)
				}
			case 6: // lock-free reads + invariant check
				_, _, _ = eng.Classify(vec.Vector{1, 2})
				_ = eng.Centroids()
				_ = eng.Stats()
				if !closed {
					if err := eng.CheckInvariants(); err != nil && err != ErrClosed {
						t.Fatalf("CheckInvariants: %v", err)
					}
				}
			case 7: // close (possibly repeated — must be idempotent)
				if err := eng.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				closed = true
			}
		}

		// Final close always runs; mass conservation is checked against
		// what the engine actually accepted (inserts racing Close may have
		// been rejected, and rejected points owe no mass).
		if err := eng.Close(); err != nil {
			t.Fatalf("final Close: %v", err)
		}
		accepted := eng.Stats().Inserted
		snap := eng.Snapshot()
		if snap == nil {
			if accepted != 0 {
				t.Fatalf("no snapshot but %d points accepted", accepted)
			}
			return
		}
		if snap.Points != accepted {
			t.Fatalf("mass not conserved: snapshot %d points, engine accepted %d", snap.Points, accepted)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("CheckInvariants after final Close: %v", err)
		}
	})
}
