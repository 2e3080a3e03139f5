package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"birch/internal/server"
	"birch/internal/vec"
)

// daemon runs one birchd instance with a test lifecycle: started on :0,
// stopped by cancel, run's error collected at cleanup.
type daemon struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
	out    bytes.Buffer
	mu     sync.Mutex
}

func (d *daemon) stdout() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

// lockedWriter serializes daemon stdout writes against test reads.
type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{done: make(chan error, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	ready := make(chan string, 1)
	w := lockedWriter{mu: &d.mu, buf: &d.out}
	go func(out chan<- error) {
		out <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), w, w, ready)
	}(d.done)
	select {
	case d.addr = <-ready:
	case err := <-d.done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-d.done:
			if err != nil {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("daemon did not drain in time")
		}
	})
	return d
}

func testBlobs(n, dim int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := vec.New(dim)
		for d := 0; d < dim; d++ {
			p[d] = float64((i%5)*100) + float64(i*dim+d)*0.001
		}
		pts[i] = p
	}
	return pts
}

// TestServeMode drives the standalone daemon end to end: insert over
// both tiers, flush, classify, stats, then graceful drain.
func TestServeMode(t *testing.T) {
	d := startDaemon(t, "-mode", "serve", "-dim", "2", "-k", "3", "-shards", "2", "-compact", "0")
	cl := server.NewClient("http://" + d.addr)
	ctx := context.Background()

	pts := testBlobs(300, 2)
	if err := cl.Insert(ctx, pts[0]); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if n, err := cl.InsertBatch(ctx, pts[1:], 2); err != nil || n != 299 {
		t.Fatalf("insert-batch: n=%d err=%v", n, err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	meta, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if meta.Points != 300 || len(meta.Centroids) == 0 {
		t.Fatalf("snapshot: points=%d centroids=%d", meta.Points, len(meta.Centroids))
	}
	idx, dist, err := cl.ClassifyBatch(ctx, pts[:10], 2)
	if err != nil || len(idx) != 10 || len(dist) != 10 {
		t.Fatalf("classify-batch: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil || st.Engine.Inserted != 300 {
		t.Fatalf("stats: inserted=%d err=%v", st.Engine.Inserted, err)
	}
}

// TestShardAndCoordinatorModes stands up a 2-daemon fleet plus a
// coordinator daemon and checks the full network path: inserts fan out,
// flush merges, classify serves from the merged snapshot.
func TestShardAndCoordinatorModes(t *testing.T) {
	var peerURLs []string
	for i := 0; i < 2; i++ {
		sd := startDaemon(t, "-mode", "shard", "-fleet", "2", "-dim", "2", "-k", "3", "-compact", "0")
		peerURLs = append(peerURLs, "http://"+sd.addr)
	}
	cd := startDaemon(t, "-mode", "coordinator", "-dim", "2", "-k", "3",
		"-peers", strings.Join(peerURLs, ","), "-refresh", "0")
	cl := server.NewClient("http://" + cd.addr)
	ctx := context.Background()

	pts := testBlobs(400, 2)
	for i := 0; i < len(pts); i += 50 {
		if n, err := cl.InsertBatch(ctx, pts[i:i+50], 2); err != nil || n != 50 {
			t.Fatalf("insert-batch %d: n=%d err=%v", i, n, err)
		}
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	meta, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if meta.Points != 400 {
		t.Fatalf("merged snapshot covers %d points, want 400", meta.Points)
	}
	if _, _, err := cl.ClassifyBatch(ctx, pts[:5], 2); err != nil {
		t.Fatalf("classify through coordinator: %v", err)
	}

	// Both shards should hold some of the mass: round-robin fanned out.
	for i, u := range peerURLs {
		st, err := server.NewClient(u).Stats(ctx)
		if err != nil {
			t.Fatalf("peer %d stats: %v", i, err)
		}
		if st.Engine.Inserted == 0 || st.Engine.Inserted == 400 {
			t.Fatalf("peer %d holds %d points: fan-out did not spread", i, st.Engine.Inserted)
		}
	}
}

// TestDurableWarmRestart round-trips a -store directory across two
// daemon lifetimes: the second must warm-restart with the full mass.
func TestDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-mode", "serve", "-dim", "2", "-k", "3", "-compact", "0", "-store", dir)
	cl := server.NewClient("http://" + d.addr)
	ctx := context.Background()
	if n, err := cl.InsertBatch(ctx, testBlobs(250, 2), 2); err != nil || n != 250 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	d.cancel()
	if err := <-d.done; err != nil {
		t.Fatalf("first daemon exit: %v", err)
	}
	d.done <- nil // keep the t.Cleanup drain happy

	d2 := startDaemon(t, "-mode", "serve", "-dim", "2", "-k", "3", "-compact", "0", "-store", dir)
	if !strings.Contains(d2.stdout(), "warm restart: 250 points") {
		t.Fatalf("no warm restart banner; stdout:\n%s", d2.stdout())
	}
	cl2 := server.NewClient("http://" + d2.addr)
	if err := cl2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	meta, err := cl2.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Points != 250 {
		t.Fatalf("restarted snapshot covers %d points, want 250", meta.Points)
	}
}

// TestBadFlags covers the refuse-to-start paths.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nope"},
		{"-mode", "coordinator"}, // no peers
		{"-core", "triangular"},  // unknown core
		{"-mode", "shard", "-fleet", "0"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var out bytes.Buffer
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &out, nil)
		cancel()
		if err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}
