package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/faultfs"
	"birch/internal/stream"
	"birch/internal/vec"
)

// startServer builds a Server over b, serves it on a loopback listener,
// and returns a client plus a shutdown func. Shutdown errors fail t.
func startServer(t *testing.T, b Backend, opts Options) (*Client, func()) {
	t.Helper()
	addr, shutdown := serve(t, New(b, opts))
	return NewClient("http://" + addr), shutdown
}

// serve serves s on a loopback listener and returns its address plus a
// shutdown func. Shutdown errors fail t.
func serve(t *testing.T, s *Server) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func(out chan<- error) { out <- s.Serve(l) }(served)
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := <-served; !errors.Is(err, http.ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		})
	}
	return l.Addr().String(), shutdown
}

func testEngineBackend(t *testing.T, dim, k int) EngineBackend {
	t.Helper()
	cfg := core.DefaultConfig(dim, k)
	eng, err := stream.New(cfg, stream.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return EngineBackend{Eng: eng, Cfg: cfg}
}

// TestServerEndToEnd drives every endpoint over both wire tiers against
// a real engine: insert (JSON single + binary batch), flush, classify
// (JSON single + binary batch), snapshot, stats, healthz.
func TestServerEndToEnd(t *testing.T) {
	const dim, k = 3, 4
	b := testEngineBackend(t, dim, k)
	cl, shutdown := startServer(t, b, Options{})
	defer shutdown()
	ctx := context.Background()

	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	// Classify before any snapshot must 409, not 500 or hang.
	if _, _, err := cl.Classify(ctx, vec.Vector{1, 2, 3}); err == nil ||
		!strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("classify before snapshot: %v", err)
	}

	pts := testPoints(500, dim)
	if err := cl.Insert(ctx, pts[0]); err != nil {
		t.Fatalf("JSON insert: %v", err)
	}
	n, err := cl.InsertBatch(ctx, pts[1:], dim)
	if err != nil {
		t.Fatalf("binary insert-batch: %v", err)
	}
	if n != int64(len(pts)-1) {
		t.Fatalf("acked %d, want %d", n, len(pts)-1)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	meta, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if meta.Points != int64(len(pts)) {
		t.Fatalf("snapshot covers %d points, want %d", meta.Points, len(pts))
	}
	if len(meta.Centroids) == 0 {
		t.Fatal("snapshot has no centroids")
	}

	// Both classify tiers must agree exactly with the engine.
	wantIdx, wantDist, ok := b.Eng.ClassifyBatch(pts[:32], 1)
	if !ok {
		t.Fatal("engine refused to classify")
	}
	gi, gd, err := cl.ClassifyBatch(ctx, pts[:32], dim)
	if err != nil {
		t.Fatalf("binary classify-batch: %v", err)
	}
	for i := range gi {
		if gi[i] != wantIdx[i] || gd[i] != wantDist[i] {
			t.Fatalf("binary classify %d: got (%d,%v) want (%d,%v)", i, gi[i], gd[i], wantIdx[i], wantDist[i])
		}
	}
	ji, jd, err := cl.Classify(ctx, pts[7])
	if err != nil {
		t.Fatalf("JSON classify: %v", err)
	}
	if ji != wantIdx[7] || jd != wantDist[7] {
		t.Fatalf("JSON classify: got (%d,%v) want (%d,%v)", ji, jd, wantIdx[7], wantDist[7])
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Engine.Inserted != int64(len(pts)) {
		t.Fatalf("stats.Engine.Inserted = %d, want %d", st.Engine.Inserted, len(pts))
	}
	if st.Server.AcceptedPoints != int64(len(pts)) {
		t.Fatalf("stats.Server.AcceptedPoints = %d, want %d", st.Server.AcceptedPoints, len(pts))
	}
	if st.Server.InsertFlushes == 0 || st.Server.ClassifyFlushes == 0 {
		t.Fatalf("collector gauges missing: %+v", st.Server)
	}

	// Bad requests: wrong dimension, both JSON fields, garbage frame.
	if err := cl.Insert(ctx, vec.Vector{1}); err == nil {
		t.Fatal("wrong-dimension insert accepted")
	}
	if _, err := cl.do(ctx, http.MethodPost, "/insert", "application/json",
		[]byte(`{"point":[1,2,3],"points":[[1,2,3]]}`)); err == nil {
		t.Fatal("point+points accepted")
	}
	if _, err := cl.do(ctx, http.MethodPost, "/insert-batch", ContentTypeFrame,
		[]byte("not a frame")); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

// TestNonFiniteBinaryPointsRejected: a binary-tier frame carrying a NaN
// or ±Inf coordinate answers 400 on insert and on classify before
// anything is queued, so the engine's point count does not change and
// GET /snapshot still encodes. (A NaN in the engine's state would make
// the snapshot's JSON encoding fail after its 200 header, an empty body
// on every later read.)
func TestNonFiniteBinaryPointsRejected(t *testing.T) {
	const dim = 3
	b := testEngineBackend(t, dim, 4)
	addr, shutdown := serve(t, New(b, Options{}))
	defer shutdown()
	cl := NewClient("http://" + addr)
	ctx := context.Background()
	pts := testPoints(500, dim)
	if _, err := cl.InsertBatch(ctx, pts, dim); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	post := func(path string, p vec.Vector) int {
		t.Helper()
		frame, err := AppendPointsFrame(nil, []vec.Vector{pts[0], p}, dim)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+addr+path, ContentTypeFrame, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []vec.Vector{{math.NaN(), 0, 0}, {math.Inf(1), 0, 0}, {0, 0, math.Inf(-1)}} {
		for _, path := range []string{"/insert-batch", "/insert", "/classify-batch"} {
			if code := post(path, bad); code != http.StatusBadRequest {
				t.Fatalf("%s of %v: status %d, want 400", path, bad, code)
			}
		}
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Inserted != int64(len(pts)) {
		t.Fatalf("engine counts %d inserted points, want %d", st.Engine.Inserted, len(pts))
	}
	meta, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot after rejected frames: %v", err)
	}
	if meta.Points != int64(len(pts)) || len(meta.Centroids) == 0 {
		t.Fatalf("snapshot covers %d points with %d centroids, want %d points", meta.Points, len(meta.Centroids), len(pts))
	}
}

// stubBackend is a Backend whose InsertBatch can be blocked, for
// deterministic backpressure and coalescing tests.
type stubBackend struct {
	dim     int
	entered chan struct{} // if non-nil, signaled when InsertBatch begins
	gate    chan struct{} // each InsertBatch receives once before returning
	batches [][]vec.Vector
	mu      sync.Mutex
	points  atomic.Int64
	closed  atomic.Bool
}

func (s *stubBackend) Dim() int              { return s.dim }
func (s *stubBackend) CoreKind() cf.CoreKind { return cf.CoreClassic }
func (s *stubBackend) InsertBatch(ctx context.Context, pts []vec.Vector) error {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.batches = append(s.batches, append([]vec.Vector(nil), pts...))
	s.mu.Unlock()
	s.points.Add(int64(len(pts)))
	return nil
}
func (s *stubBackend) InsertSparseBatch(ctx context.Context, sps []vec.Sparse) error {
	pts := make([]vec.Vector, len(sps))
	for i, sp := range sps {
		pts[i] = sp.Dense()
	}
	return s.InsertBatch(ctx, pts)
}
func (s *stubBackend) Snapshot() *stream.Snapshot { return nil }
func (s *stubBackend) Stats() stream.Stats        { return stream.Stats{Inserted: s.points.Load()} }
func (s *stubBackend) Summaries(ctx context.Context) ([]core.Summary, error) {
	return nil, nil
}
func (s *stubBackend) Flush(ctx context.Context) error { return nil }
func (s *stubBackend) Close() error                    { s.closed.Store(true); return nil }

// TestBackpressure429 saturates a tiny admission queue behind a blocked
// backend and requires (a) 429s with a Retry-After hint, (b) zero lost
// acks: every 200 corresponds to a point the backend actually received,
// and (c) a clean recovery: once the storm is over, the next insert is
// acked.
func TestBackpressure429(t *testing.T) {
	stub := &stubBackend{dim: 2, gate: make(chan struct{})}
	cl, shutdown := startServer(t, stub, Options{
		MaxBatch:   4,
		BatchWait:  time.Millisecond,
		QueueDepth: 2,
	})
	ctx := context.Background()
	// feed lets the collector pull one batch at a time until done closes.
	feed := func(done <-chan struct{}) {
		for {
			select {
			case <-done:
				return
			case stub.gate <- struct{}{}:
			}
		}
	}

	const attempts = 64
	var acked, overloaded atomic.Int64
	var shed sync.Once
	firstShed := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := vec.Vector{float64(i), 1}
			err := cl.Insert(ctx, p)
			switch {
			case err == nil:
				acked.Add(1)
			case errors.Is(err, ErrOverloaded):
				var oe *OverloadedError
				if !errors.As(err, &oe) || oe.RetryAfter != retryAfter {
					t.Errorf("429 with wrong Retry-After: %v", err)
				}
				overloaded.Add(1)
				shed.Do(func() { close(firstShed) })
			default:
				t.Errorf("unexpected insert error: %v", err)
			}
		}(i)
	}
	storm := make(chan struct{})
	go func(done chan<- struct{}) {
		wg.Wait()
		close(done)
	}(storm)
	// Hold the backend until the queue has overflowed once, so the storm
	// sheds load however the host schedules its requests; then let the
	// collector pull one batch at a time.
	select {
	case <-firstShed:
	case <-time.After(10 * time.Second):
	}
	feed(storm)

	// Shedding load must not leave the server refusing work: with the
	// queue empty again, one more insert is acked and reaches the backend.
	post := make(chan struct{})
	var postErr error
	go func() {
		postErr = cl.Insert(ctx, vec.Vector{-1, 1})
		close(post)
	}()
	feed(post)
	if postErr != nil {
		t.Errorf("insert after the storm: %v", postErr)
	} else {
		acked.Add(1)
	}
	if got := stub.points.Load(); got != acked.Load() {
		t.Errorf("after the storm the backend holds %d points, clients got %d acks", got, acked.Load())
	}
	shutdown()
	close(stub.gate) // unblock any final drain flush

	if overloaded.Load() == 0 {
		t.Fatal("queue of depth 2 never produced a 429 under a 64-way storm")
	}
	// The client reads a missing hint as 1 too, so check the header.
	rec := httptest.NewRecorder()
	(&Server{}).reject(rec)
	if got := rec.Header().Get("Retry-After"); got != strconv.Itoa(retryAfter) {
		t.Fatalf("Retry-After = %q, want %d", got, retryAfter)
	}
	if got := stub.points.Load(); got != acked.Load() {
		t.Fatalf("backend received %d points, clients got %d acks", got, acked.Load())
	}
	if !stub.closed.Load() {
		t.Fatal("Shutdown did not close the backend")
	}
}

// TestCoalescing parks requests behind one blocked flush and requires
// the collector to fold the queued singles into a single backend batch.
func TestCoalescing(t *testing.T) {
	stub := &stubBackend{
		dim:     2,
		entered: make(chan struct{}, 8),
		gate:    make(chan struct{}, 64),
	}
	cl, shutdown := startServer(t, stub, Options{
		MaxBatch:   64,
		BatchWait:  time.Millisecond,
		QueueDepth: 64,
	})
	defer shutdown()
	ctx := context.Background()

	// First insert occupies the collector inside the blocked flush.
	first := make(chan error, 1)
	go func(out chan<- error) { out <- cl.Insert(ctx, vec.Vector{0, 0}) }(first)
	<-stub.entered // the collector is now parked inside InsertBatch
	// Park 10 more singles in the queue while the flush is blocked.
	var wg sync.WaitGroup
	for i := 1; i <= 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := cl.Insert(ctx, vec.Vector{float64(i), 0}); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}(i)
	}
	waitFor(t, func() bool {
		st, err := cl.Stats(ctx)
		return err == nil && st.Server.InsertQueueLen == 10
	})
	for i := 0; i < 64; i++ { // release everything
		stub.gate <- struct{}{}
	}
	if err := <-first; err != nil {
		t.Fatalf("first insert: %v", err)
	}
	wg.Wait()

	stub.mu.Lock()
	sizes := make([]int, len(stub.batches))
	for i, b := range stub.batches {
		sizes[i] = len(b)
	}
	stub.mu.Unlock()
	if len(sizes) < 2 || sizes[0] != 1 {
		t.Fatalf("batch sizes %v: want the blocked single first", sizes)
	}
	if sizes[1] != 10 {
		t.Fatalf("batch sizes %v: want the 10 parked singles coalesced into one flush", sizes)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestDrainNoAcceptedInsertLost storms a real engine with concurrent
// inserts, shuts down mid-storm, and requires the final snapshot to
// cover exactly the acked points: a 200 is a durability promise across
// shutdown, and nothing unacked sneaks in after drain starts.
func TestDrainNoAcceptedInsertLost(t *testing.T) {
	const dim = 2
	b := testEngineBackend(t, dim, 3)
	cl, shutdown := startServer(t, b, Options{MaxBatch: 8, QueueDepth: 32})
	ctx := context.Background()

	var acked atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pts := []vec.Vector{{float64(w), float64(i)}, {float64(i), float64(w)}}
				n, err := cl.InsertBatch(ctx, pts, dim)
				if err == nil {
					acked.Add(n)
				}
				// 429/503/refused-connection during shutdown are all fine —
				// they are not acks.
			}
		}(w)
	}
	waitFor(t, func() bool { return acked.Load() > 1000 })
	go close(stop)
	shutdown() // races the storm on purpose; drain must still be exact
	wg.Wait()

	snap := b.Eng.Snapshot()
	if snap == nil {
		t.Fatal("no final snapshot after Shutdown")
	}
	if snap.Points != acked.Load() {
		t.Fatalf("final snapshot covers %d points, clients hold %d acks", snap.Points, acked.Load())
	}
}

// TestHealthzDrainingAndStatsShape checks healthz flips to 503 after
// shutdown begins and that /stats carries the serving-health gauges.
func TestStatsCarriesServingHealthGauges(t *testing.T) {
	b := testEngineBackend(t, 2, 3)
	cl, shutdown := startServer(t, b, Options{})
	defer shutdown()
	ctx := context.Background()
	if _, err := cl.InsertBatch(ctx, testPoints(100, 2), 2); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// No flush yet: everything accepted is compactor lag.
	if st.Engine.CompactorLagPoints != 100 {
		t.Fatalf("CompactorLagPoints = %d, want 100", st.Engine.CompactorLagPoints)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.CompactorLagPoints != 0 || st.Engine.SnapshotAgeTicks != 0 {
		t.Fatalf("after flush: lag=%d age=%d, want 0/0",
			st.Engine.CompactorLagPoints, st.Engine.SnapshotAgeTicks)
	}
}

// TestStatsShowAutomaticCheckpoints: on a durable engine whose shards
// checkpoint on their own, /stats reports each shard's completed
// checkpoints.
func TestStatsShowAutomaticCheckpoints(t *testing.T) {
	cfg := core.DefaultConfig(2, 3)
	eng, _, err := stream.Open(cfg, stream.Options{Shards: 2},
		&stream.DurableOptions{FS: faultfs.NewDisk(), SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	cl, shutdown := startServer(t, EngineBackend{Eng: eng, Cfg: cfg}, Options{})
	defer shutdown()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := cl.InsertBatch(ctx, testPoints(50, 2), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Engine.Shards) != 2 {
		t.Fatalf("/stats reports %d shards, want 2", len(st.Engine.Shards))
	}
	for _, sh := range st.Engine.Shards {
		if sh.Checkpoints < 1 {
			t.Fatalf("shard %d reports %d checkpoints after 1000 inserts, want ≥1", sh.Shard, sh.Checkpoints)
		}
	}
}

// TestReadHeaderTimeoutClosesStalledConn: a client that sends half a
// request header and then stalls must have its connection closed once
// the header timeout passes, instead of pinning it (and a server
// goroutine) forever.
func TestReadHeaderTimeoutClosesStalledConn(t *testing.T) {
	s := New(&stubBackend{dim: 2}, Options{})
	if s.http.ReadHeaderTimeout != readHeaderTimeout || s.http.ReadTimeout != readTimeout ||
		s.http.IdleTimeout != idleTimeout {
		t.Fatalf("New set ReadHeaderTimeout %v, ReadTimeout %v, IdleTimeout %v; want %v, %v, %v",
			s.http.ReadHeaderTimeout, s.http.ReadTimeout, s.http.IdleTimeout,
			readHeaderTimeout, readTimeout, idleTimeout)
	}
	s.http.ReadHeaderTimeout = 100 * time.Millisecond
	addr, shutdown := serve(t, s)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	requireServerHangsUp(t, conn, "with a half-sent header")
}

// requireServerHangsUp reads conn to its end and fails if the server
// has not closed it within a few seconds.
func requireServerHangsUp(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	// The server must hang up well before this client-side deadline.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// EOF or a reset means the server closed the connection; a reply it
	// sends first (an error for a cut-off body) is read and dropped.
	start := time.Now()
	_, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v %s", time.Since(start), what)
	}
}

// TestReadTimeoutClosesStalledBody: a client that sends a header and
// part of the body it announced, then stalls, is closed once the read
// timeout passes.
func TestReadTimeoutClosesStalledBody(t *testing.T) {
	s := New(&stubBackend{dim: 2}, Options{})
	s.http.ReadTimeout = 200 * time.Millisecond
	addr, shutdown := serve(t, s)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "POST /insert HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"point\":[1,"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	requireServerHangsUp(t, conn, "with a half-sent body")
}

// TestIdleTimeoutClosesIdleConn: a keep-alive connection that sends no
// further request after its first is closed once the idle timeout
// passes.
func TestIdleTimeoutClosesIdleConn(t *testing.T) {
	s := New(&stubBackend{dim: 2}, Options{})
	s.http.IdleTimeout = 200 * time.Millisecond
	addr, shutdown := serve(t, s)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Close || br.Buffered() != 0 {
		t.Fatalf("first request: status %d, close %v, %d bytes after it; want 200 on a kept-alive connection",
			resp.StatusCode, resp.Close, br.Buffered())
	}
	requireServerHangsUp(t, conn, "while idle after a kept-alive request")
}
