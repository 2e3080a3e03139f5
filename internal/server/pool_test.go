package server

import (
	"context"
	"errors"
	"fmt"
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
	"birch/internal/dataset"
	"birch/internal/stream"
	"birch/internal/vec"
)

// gateBackend holds every InsertBatch and Snapshot call until the test
// feeds it a token, and keeps a deep copy of each inserted batch, taken
// after the token: a batch's points must still hold their values then.
type gateBackend struct {
	dim     int
	snap    *stream.Snapshot
	entered chan struct{} // a gated call signals here as it begins
	gate    chan struct{} // a gated call takes one token before it proceeds
	mu      sync.Mutex
	batches [][]vec.Vector
}

func (b *gateBackend) wait() {
	b.entered <- struct{}{}
	<-b.gate
}

func (b *gateBackend) Dim() int              { return b.dim }
func (b *gateBackend) CoreKind() cf.CoreKind { return cf.CoreClassic }
func (b *gateBackend) InsertBatch(ctx context.Context, pts []vec.Vector) error {
	b.wait()
	batch := make([]vec.Vector, len(pts))
	for i, p := range pts {
		batch[i] = p.Clone()
	}
	b.mu.Lock()
	b.batches = append(b.batches, batch)
	b.mu.Unlock()
	return nil
}
func (b *gateBackend) InsertSparseBatch(ctx context.Context, sps []vec.Sparse) error {
	return errors.New("gateBackend: no sparse inserts")
}
func (b *gateBackend) Snapshot() *stream.Snapshot {
	b.wait()
	return b.snap
}
func (b *gateBackend) Stats() stream.Stats { return stream.Stats{} }
func (b *gateBackend) Summaries(ctx context.Context) ([]core.Summary, error) {
	return nil, nil
}
func (b *gateBackend) Flush(ctx context.Context) error { return nil }
func (b *gateBackend) Close() error                    { return nil }

// feed hands out gate tokens until done closes.
func (b *gateBackend) feed(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case b.gate <- struct{}{}:
		case <-b.entered:
		}
	}
}

func requireBitEqual(t *testing.T, what string, got, want []vec.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: point %d coordinate %d is %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestGiveUpLeavesBatchToCollector: a client that gives up while its
// batch is parked in a collector must not hand that batch's request
// buffers to the next requests. Client A's insert (then classify) is
// held inside the backend while A cancels; clients B and C then send
// other points. Once released, the backend must receive A's points bit
// for bit, and B and C must get the right answers. Run it under -race:
// a scratch reused too early is also a data race.
func TestGiveUpLeavesBatchToCollector(t *testing.T) {
	const dim = 4
	pool := dataset.GaussianMixture(dim, 8, 40, 8, 1, 7).Points
	cfg := core.DefaultConfig(dim, 8)
	eng, err := stream.New(cfg, stream.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch(context.Background(), pool); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	b := &gateBackend{dim: dim, snap: snap, entered: make(chan struct{}), gate: make(chan struct{})}
	s := New(b, Options{})
	gaveUp := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if r.Context().Err() != nil {
			gaveUp <- struct{}{}
		}
	}))
	defer ts.Close()
	defer func() {
		done := make(chan struct{})
		go b.feed(done)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		close(done)
	}()
	ctx := context.Background()
	a, bc := NewClient(ts.URL), NewClient(ts.URL)
	ptsA, ptsB, ptsC := pool[:64], pool[64:96], pool[96:128]

	// parkAndGiveUp sends A's request, waits until its batch is held in
	// the backend, cancels A and waits until A's handler has given up.
	parkAndGiveUp := func(send func(context.Context) error) {
		t.Helper()
		actx, cancel := context.WithCancel(ctx)
		errA := make(chan error, 1)
		go func() { errA <- send(actx) }()
		<-b.entered
		cancel()
		if err := <-errA; !errors.Is(err, context.Canceled) {
			t.Fatalf("client A: %v, want context.Canceled", err)
		}
		select {
		case <-gaveUp:
		case <-time.After(10 * time.Second):
			t.Fatal("A's handler did not give up")
		}
	}
	// sendBC sends B's and C's requests, waits until both are queued,
	// then releases the backend until both have their answers.
	sendBC := func(send func(pts []vec.Vector) error, queued func() int) {
		t.Helper()
		var wg sync.WaitGroup
		for _, pts := range [][]vec.Vector{ptsB, ptsC} {
			wg.Add(1)
			go func(pts []vec.Vector) {
				defer wg.Done()
				if err := send(pts); err != nil {
					t.Error(err)
				}
			}(pts)
		}
		waitFor(t, func() bool { return queued() == 2 })
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		b.feed(done)
	}

	for round := 0; round < 3; round++ {
		b.mu.Lock()
		b.batches = nil
		b.mu.Unlock()
		parkAndGiveUp(func(ctx context.Context) error {
			_, err := a.InsertBatch(ctx, ptsA, dim)
			return err
		})
		sendBC(func(pts []vec.Vector) error {
			n, err := bc.InsertBatch(ctx, pts, dim)
			if err == nil && n != int64(len(pts)) {
				err = fmt.Errorf("insert acked %d of %d points", n, len(pts))
			}
			return err
		}, func() int { return len(s.insertQ) })
		b.mu.Lock()
		got := b.batches
		b.mu.Unlock()
		if len(got) == 0 {
			t.Fatal("the backend received nothing")
		}
		requireBitEqual(t, "A's parked insert", got[0], ptsA)
		var rest []vec.Vector
		for _, batch := range got[1:] {
			rest = append(rest, batch...)
		}
		if len(rest) != len(ptsB)+len(ptsC) {
			t.Fatalf("the backend received %d points from B and C, want %d", len(rest), len(ptsB)+len(ptsC))
		}
		if math.Float64bits(rest[0][0]) == math.Float64bits(ptsC[0][0]) { // C was admitted first
			rest = append(rest[len(ptsC):], rest[:len(ptsC)]...)
		}
		requireBitEqual(t, "B's and C's inserts", rest, pool[64:128])

		parkAndGiveUp(func(ctx context.Context) error {
			_, _, err := a.ClassifyBatch(ctx, ptsA, dim)
			return err
		})
		sendBC(func(pts []vec.Vector) error {
			idx, dist, err := bc.ClassifyBatch(ctx, pts, dim)
			if err != nil {
				return err
			}
			wantIdx, wantDist, _ := snap.ClassifyBatch(pts, 1)
			for i := range pts {
				if idx[i] != wantIdx[i] || math.Float64bits(dist[i]) != math.Float64bits(wantDist[i]) {
					return fmt.Errorf("classify point %d: got (%d, %v), want (%d, %v)", i, idx[i], dist[i], wantIdx[i], wantDist[i])
				}
			}
			return nil
		}, func() int { return len(s.classifyQ) })
	}
}

// smallBufferListener shrinks every accepted connection's receive
// buffer, so a large request body stays in flight until the handler
// reads it.
type smallBufferListener struct{ net.Listener }

func (l smallBufferListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		// A failure leaves the default buffer: the frame may then be
		// written whole before the reply, which the test still checks.
		_ = tc.SetReadBuffer(64 << 10)
	}
	return c, err
}

// TestEarlyReplyKeepsFrameOutOfPool: a server may answer before it has
// read the request body, and Do then returns while the transport still
// writes the frame. The client must not reuse that frame until the
// transport reports it written. The server answers every large frame
// with 413 before reading it, then reads it anyway and checks its CRC,
// while many goroutines send large and small frames through the pool.
// Run it under -race.
func TestEarlyReplyKeepsFrameOutOfPool(t *testing.T) {
	const dim, workers, rounds = 16, 8, 12
	const largeFrame = 64 << 10 // bodies above this get the early 413
	var checked, largeChecked, badCRC atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		large := r.ContentLength > largeFrame
		if large {
			rc := http.NewResponseController(w)
			if err := rc.EnableFullDuplex(); err != nil {
				t.Error(err)
			}
			msg := []byte(`{"error":"frame too large"}`)
			w.Header().Set("Content-Length", strconv.Itoa(len(msg)))
			w.WriteHeader(http.StatusRequestEntityTooLarge)
			// A failed write or flush means the client is gone; its
			// request then fails, and the body read below reports the cut.
			_, _ = w.Write(msg)
			_ = rc.Flush()
			// Let the client see the reply while its write is stalled.
			time.Sleep(2 * time.Millisecond)
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return // cut off: the client closed the connection mid-body
		}
		if _, _, err := DecodeFrame(body); err != nil {
			badCRC.Add(1)
			t.Errorf("frame of %d bytes arrived broken: %v", len(body), err)
		}
		checked.Add(1)
		if large {
			largeChecked.Add(1)
			return
		}
		w.Header().Set("Content-Type", ContentTypeFrame)
		_, _ = w.Write(AppendAckFrame(nil, 1)) // a failure fails the client's request
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(h)
	ts.Listener = smallBufferListener{l}
	ts.Start()
	defer ts.Close()
	cl := NewClient(ts.URL)
	tr := cl.hc.Transport.(*http.Transport)
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(64 << 10) // as SetReadBuffer above
		}
		return c, err
	}
	defer tr.CloseIdleConnections()

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Two large frames, then a small one; every frame's values
			// differ, so a frame overwritten in flight fails its CRC.
			batches := make([][]vec.Vector, 3)
			for k, n := range []int{6000, 6000, 32} { // 6,000 points: a 750 KiB frame
				batches[k] = make([]vec.Vector, n)
				for i := range batches[k] {
					p := vec.New(dim)
					for j := range p {
						p[j] = float64(g*1_000_000 + k*100_000 + i*dim + j)
					}
					batches[k][i] = p
				}
			}
			for k := 0; k < rounds; k++ {
				pts := batches[k%3]
				_, err := cl.InsertBatch(ctx, pts, dim)
				if len(pts) > 32 {
					if err == nil || !strings.Contains(err.Error(), "413") {
						t.Errorf("large frame: %v, want a 413", err)
					}
				} else if err != nil {
					t.Errorf("small frame: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if badCRC.Load() > 0 {
		t.Fatalf("%d of %d frames reached the server broken", badCRC.Load(), checked.Load())
	}
	if largeChecked.Load() == 0 {
		t.Fatal("no large frame was read whole after its early reply; the test checked nothing")
	}
}

// TestClientResponseBounded: a peer that declares a response longer than
// the largest frame must not make the client read it. The client fails
// before reading a byte, naming the limit; the peer counts the bytes it
// managed to write before the client gave up.
func TestClientResponseBounded(t *testing.T) {
	const stream = 64 << 20 // what the peer writes if nobody stops it
	var wrote atomic.Int64
	done := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		w.Header().Set("Content-Length", strconv.Itoa(maxFrameBytes+1))
		w.Header().Set("Content-Type", ContentTypeFrame)
		w.WriteHeader(http.StatusOK)
		chunk := make([]byte, 64<<10)
		for wrote.Load() < stream {
			n, err := w.Write(chunk)
			wrote.Add(int64(n))
			if err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	_, _, _, err := NewClient(ts.URL).Summaries(context.Background())
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxFrameBytes)) {
		t.Fatalf("Summaries: %v, want an error naming the %d-byte limit", err, maxFrameBytes)
	}
	<-done
	if got := wrote.Load(); got >= stream/2 {
		t.Fatalf("the peer wrote %d bytes before the client gave up, want well under %d", got, stream)
	}
}

// endlessReader yields zero bytes without end and counts them.
type endlessReader struct{ n int64 }

func (r *endlessReader) Read(p []byte) (int, error) {
	clear(p)
	r.n += int64(len(p))
	return len(p), nil
}

// TestReadBodyBoundsUndeclaredLength: a body of undeclared length, as a
// peer streaming a response without end sends, fails once its bytes
// pass the limit, and the read stops there. The client reads every
// response through readBody, against the largest frame; a 1 MiB limit
// keeps the test's heap small.
func TestReadBodyBoundsUndeclaredLength(t *testing.T) {
	const limit = 1 << 20
	var r endlessReader
	_, err := readBody(nil, &r, -1, limit)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(limit)) {
		t.Fatalf("readBody: %v, want an error naming the %d-byte limit", err, limit)
	}
	if r.n > 2*limit {
		t.Fatalf("read %d bytes of an endless body, want at most %d", r.n, 2*limit)
	}
}
