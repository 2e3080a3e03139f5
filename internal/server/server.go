// Package server is the network serving layer over the BIRCH streaming
// engine: a stdlib-only HTTP daemon exposing insert/classify/snapshot
// endpoints, a micro-batching admission layer that coalesces concurrent
// requests into engine-sized batches, and a coordinator mode that fans
// inserts across remote shard daemons and merges their CF summaries by
// CF additivity — the same ReduceSummaries path the in-process engine
// uses, so a coordinator's serving snapshot is bit-identical to the
// single-process equivalent.
//
// Two wire tiers share every batch endpoint, switched on Content-Type:
// JSON for operability (curl-able, self-describing) and a compact
// length-prefixed CRC-framed binary codec (wire.go) for throughput,
// carrying raw IEEE-754 bits so values — and merged CF statistics —
// round-trip exactly.
//
//birchlint:leakcheck
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"birch/internal/stream"
	"birch/internal/vec"
)

// Options tunes the admission layer. The zero value is usable: every
// field falls back to the default below.
type Options struct {
	// MaxBatch is the point count at which a collector flushes without
	// waiting for the deadline. Default 64.
	MaxBatch int
	// BatchWait is how long the first parked request waits for company
	// before the collector flushes anyway. Default 200µs — roughly the
	// knee where coalescing pays for itself without showing up in p99.
	BatchWait time.Duration
	// QueueDepth bounds each admission queue in requests. A full queue
	// rejects with 429 + Retry-After instead of growing latency without
	// bound. Default 256.
	QueueDepth int
	// ClassifyWorkers caps the fan-out of one coalesced ClassifyBatch.
	// Default 1 (the collector goroutine scans inline).
	ClassifyWorkers int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.BatchWait <= 0 {
		o.BatchWait = 200 * time.Microsecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.ClassifyWorkers <= 0 {
		o.ClassifyWorkers = 1
	}
	return o
}

// Connection timeouts. Without them a client that never finishes its
// request, or holds a keep-alive connection open and silent, pins a
// connection and a goroutine forever.
const (
	// readHeaderTimeout bounds how long a request header may take.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds the whole request read, header and body, so a
	// client that stalls mid-body is closed too. It leaves a slow link
	// about 1 MiB/s for the largest frame the server accepts. Handlers
	// are not bounded by it: net/http clears the read deadline once the
	// body has been read.
	readTimeout = time.Minute
	// idleTimeout closes a keep-alive connection that has sent no new
	// request for this long. It is longer than the 90 s idle timeout of
	// Client's transport, so a client retires an idle connection before
	// the server closes it.
	idleTimeout = 2 * time.Minute
)

// retryAfter is the Retry-After hint, in seconds, sent with every 429.
const retryAfter = 1

// Server fronts a Backend with the HTTP API and the micro-batching
// admission layer. Create with New, serve with Serve, stop with
// Shutdown — which drains so that every 200-acked insert is in the
// backend before it returns.
type Server struct {
	b    Backend
	opts Options
	mux  *http.ServeMux
	http *http.Server

	insertQ   chan *insertReq
	classifyQ chan *classifyReq
	quit      chan struct{}
	collectWG sync.WaitGroup

	draining  atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// Serving gauges, exported via /stats.
	acceptedPts        atomic.Int64 // points acked through the insert path
	rejected           atomic.Int64 // requests bounced with 429
	insertFlushes      atomic.Int64 // insert collector flushes
	insertBatchedPts   atomic.Int64 // points through those flushes
	classifyFlushes    atomic.Int64 // classify collector flushes
	classifyBatchedPts atomic.Int64 // points through those flushes
}

// New wires a Server over b and starts its collector goroutines. The
// caller owns b's lifetime only until New returns: Shutdown closes it.
func New(b Backend, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		b:         b,
		opts:      opts,
		mux:       http.NewServeMux(),
		insertQ:   make(chan *insertReq, opts.QueueDepth),
		classifyQ: make(chan *classifyReq, opts.QueueDepth),
		quit:      make(chan struct{}),
	}
	s.mux.HandleFunc("POST /insert", s.handleInsert)
	s.mux.HandleFunc("POST /insert-batch", s.handleInsert)
	s.mux.HandleFunc("POST /classify", s.handleClassify)
	s.mux.HandleFunc("POST /classify-batch", s.handleClassify)
	s.mux.HandleFunc("POST /flush", s.handleFlush)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /summary", s.handleSummary)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.collectWG.Add(2)
	go s.runInsertCollector()
	go s.runClassifyCollector()
	return s
}

// Handler exposes the route table, mainly for httptest servers.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. Like http.Server.Serve
// it reports http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown drains and stops the server: new work is refused, in-flight
// handlers finish (http.Server.Shutdown waits for them), the collectors
// flush everything admitted, and the backend is closed — which drains
// its own mailboxes and publishes a final snapshot. After a nil return,
// every insert that ever got a 200 is reflected in Snapshot().
// Idempotent; concurrent calls share one drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		err := s.http.Shutdown(ctx)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		close(s.quit)
		s.collectWG.Wait()
		if cerr := s.b.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.closeErr = err
	})
	return s.closeErr
}

// ---- request parsing --------------------------------------------------

// maxPooledBytes is the largest buffer that goes back to a pool
// (DESIGN.md §15, "Request buffers"). A request scratch or client buffer
// that grew past it is left to the GC, so one huge frame does not pin its
// memory in the pool.
const maxPooledBytes = 1 << 20

// reqScratch is the pooled working memory of one request, from the body
// read to the reply write: the body, the decoded points (dense backing
// and vector headers, or sparse index and value arrays and headers), the
// classify answers and the reply frame. The points handed to a collector
// and the answers it writes back alias the scratch, so the handler puts
// it back only after the reply is written, and never when it gives up on
// a batch the collector still owns.
type reqScratch struct {
	body    []byte
	backing []float64
	pts     []vec.Vector
	idxB    []int32
	valB    []float64
	sps     []vec.Sparse
	idx     []int
	dist    []float64
	reply   []byte
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

// release returns sc to the pool, unless one of its buffers grew past
// maxPooledBytes.
func (sc *reqScratch) release() {
	if poolable(sc.body) && poolable(sc.backing) && poolable(sc.pts) &&
		poolable(sc.idxB) && poolable(sc.valB) && poolable(sc.sps) &&
		poolable(sc.idx) && poolable(sc.dist) && poolable(sc.reply) {
		scratchPool.Put(sc)
	}
}

// poolable reports whether s's backing array is at most maxPooledBytes.
func poolable[T any](s []T) bool {
	var zero T
	return cap(s)*int(unsafe.Sizeof(zero)) <= maxPooledBytes
}

// readBody reads r to its end into dst's storage and returns the bytes,
// growing the buffer as bytes arrive, as io.ReadAll does. declared is the
// body's Content-Length, or -1 when unknown. It is checked against limit
// and sizes nothing, so a declared length allocates nothing before its
// bytes arrive. A body longer than limit fails: before any byte is read
// when declared says so, otherwise once the bytes pass limit.
func readBody(dst []byte, r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return dst[:0], fmt.Errorf("server: declared body of %d bytes exceeds the %d-byte limit", declared, limit)
	}
	b := dst[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512) // io.ReadAll's first buffer
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if int64(len(b)) > limit {
			return b, fmt.Errorf("server: body exceeds the %d-byte limit", limit)
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the growth
		}
	}
}

// jsonPoints is the JSON request body for insert and classify: either a
// single point or a batch (exactly one of the two fields set).
type jsonPoints struct {
	Point  []float64   `json:"point,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
}

// readPoints decodes the request body — binary frame or JSON by
// Content-Type — into validated points: dense vectors, or (for a
// MsgSparsePoints frame) sparse points. Exactly one of the two returned
// slices is non-empty. The body and decoded frames live in sc. Returns
// done = true after writing an error response when the body is
// malformed.
func (s *Server) readPoints(w http.ResponseWriter, r *http.Request, sc *reqScratch) (pts []vec.Vector, sps []vec.Sparse, done bool) {
	dim := s.b.Dim()
	body, err := readBody(sc.body, http.MaxBytesReader(w, r.Body, maxFrameBytes), r.ContentLength, maxFrameBytes)
	sc.body = body
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return nil, nil, true
	}
	if r.Header.Get("Content-Type") == ContentTypeFrame {
		typ, payload, err := DecodeFrame(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return nil, nil, true
		}
		switch typ {
		case MsgPoints:
			sc.backing, sc.pts, err = DecodePointsInto(payload, dim, sc.backing, sc.pts)
			if err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return nil, nil, true
			}
			return sc.pts, nil, false
		case MsgSparsePoints:
			sc.idxB, sc.valB, sc.sps, err = DecodeSparsePointsInto(payload, dim, sc.idxB, sc.valB, sc.sps)
			if err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return nil, nil, true
			}
			return nil, sc.sps, false
		default:
			httpError(w, http.StatusBadRequest, "expected a points frame")
			return nil, nil, true
		}
	}
	var req jsonPoints
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding JSON: %v", err))
		return nil, nil, true
	}
	raw := req.Points
	if req.Point != nil {
		if raw != nil {
			httpError(w, http.StatusBadRequest, `set "point" or "points", not both`)
			return nil, nil, true
		}
		raw = [][]float64{req.Point}
	}
	pts = make([]vec.Vector, len(raw))
	for i, p := range raw {
		if len(p) != dim {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("point %d has dim %d, want %d", i, len(p), dim))
			return nil, nil, true
		}
		pts[i] = vec.Vector(p)
	}
	return pts, nil, false
}

// ---- handlers ---------------------------------------------------------

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*reqScratch)
	defer func() {
		if sc != nil {
			sc.release()
		}
	}()
	pts, sps, done := s.readPoints(w, r, sc)
	if done {
		return
	}
	n := len(pts) + len(sps)
	if n == 0 {
		s.writeAck(w, r, sc, 0)
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	reply := make(chan error, 1)
	req := &insertReq{pts: pts, sps: sps, reply: reply}
	select {
	case s.insertQ <- req:
	default:
		s.reject(w)
		return
	}
	select {
	case err := <-reply:
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.writeAck(w, r, sc, int64(n))
	case <-r.Context().Done():
		// The client left; the collector still owns the batch and will
		// fold it in (reply is buffered, so its send cannot block). The
		// batch's points alias sc, so sc is left to the GC.
		sc = nil
		httpError(w, http.StatusRequestTimeout, r.Context().Err().Error())
	}
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*reqScratch)
	defer func() {
		if sc != nil {
			sc.release()
		}
	}()
	pts, sps, done := s.readPoints(w, r, sc)
	if done {
		return
	}
	if len(sps) > 0 {
		// Classification is a Euclidean nearest-centroid scan, which has no
		// bit-identical sparse gather form (internal/cf/sparse.go), so
		// sparse queries densify at the boundary into the scratch's dense
		// backing — the results are contractually identical to the dense
		// request.
		sc.backing, sc.pts = vec.DenseBatchInto(sc.backing, sc.pts, sps, s.b.Dim())
		pts = sc.pts
	}
	if len(pts) == 0 {
		s.writeClassifyResult(w, r, sc, nil, nil)
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	n := len(pts)
	sc.idx = slices.Grow(sc.idx[:0], n)[:n]
	sc.dist = slices.Grow(sc.dist[:0], n)[:n]
	reply := make(chan error, 1)
	req := &classifyReq{pts: pts, idx: sc.idx, dist: sc.dist, reply: reply}
	select {
	case s.classifyQ <- req:
	default:
		s.reject(w)
		return
	}
	select {
	case err := <-reply:
		if errors.Is(err, ErrNoSnapshot) {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.writeClassifyResult(w, r, sc, req.idx, req.dist)
	case <-r.Context().Done():
		// The collector may still read the points and write the answers,
		// which alias sc, so sc is left to the GC.
		sc = nil
		httpError(w, http.StatusRequestTimeout, r.Context().Err().Error())
	}
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.b.Flush(r.Context()); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"flushed": true})
}

// snapshotMeta is the JSON shape of GET /snapshot.
type snapshotMeta struct {
	Gen         int64       `json:"gen"`
	Points      int64       `json:"points"`
	Threshold   float64     `json:"threshold"`
	Subclusters int         `json:"subclusters"`
	Clusters    int         `json:"clusters"`
	Centroids   [][]float64 `json:"centroids,omitempty"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.b.Snapshot()
	if snap == nil {
		httpError(w, http.StatusConflict, ErrNoSnapshot.Error())
		return
	}
	meta := snapshotMeta{
		Gen:         snap.Gen,
		Points:      snap.Points,
		Threshold:   snap.Threshold,
		Subclusters: len(snap.Subclusters),
		Clusters:    len(snap.Clusters),
	}
	if r.URL.Query().Get("centroids") != "0" {
		meta.Centroids = make([][]float64, len(snap.Centroids))
		for i, c := range snap.Centroids {
			meta.Centroids[i] = c
		}
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleSummary streams the per-shard CF summaries as a binary
// summaries frame — the coordinator's pull path. Raw Float64bits on the
// wire, so the merge downstream is bit-equal to an in-process merge.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	sums, err := s.b.Summaries(r.Context())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	frame, err := AppendSummariesFrame(nil, s.b.CoreKind(), s.b.Dim(), sums)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", ContentTypeFrame)
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

// ServerGauges is the admission-layer half of GET /stats.
type ServerGauges struct {
	AcceptedPoints   int64   `json:"accepted_points"`
	Rejected429      int64   `json:"rejected_429"`
	InsertFlushes    int64   `json:"insert_flushes"`
	AvgInsertBatch   float64 `json:"avg_insert_batch"`
	ClassifyFlushes  int64   `json:"classify_flushes"`
	AvgClassifyBatch float64 `json:"avg_classify_batch"`
	Draining         bool    `json:"draining"`
	QueueDepth       int     `json:"queue_depth"`
	InsertQueueLen   int     `json:"insert_queue_len"`
	ClassifyQueueLen int     `json:"classify_queue_len"`
	MaxBatch         int     `json:"max_batch"`
	BatchWaitMicros  int64   `json:"batch_wait_us"`
}

// StatsPayload is the JSON shape of GET /stats: the engine gauges
// (including the serving-health gauges SnapshotAgeTicks and
// CompactorLagPoints) plus the server's own admission gauges.
type StatsPayload struct {
	Engine stream.Stats `json:"engine"`
	Server ServerGauges `json:"server"`
}

func (s *Server) gauges() ServerGauges {
	g := ServerGauges{
		AcceptedPoints:   s.acceptedPts.Load(),
		Rejected429:      s.rejected.Load(),
		InsertFlushes:    s.insertFlushes.Load(),
		ClassifyFlushes:  s.classifyFlushes.Load(),
		Draining:         s.draining.Load(),
		QueueDepth:       s.opts.QueueDepth,
		InsertQueueLen:   len(s.insertQ),
		ClassifyQueueLen: len(s.classifyQ),
		MaxBatch:         s.opts.MaxBatch,
		BatchWaitMicros:  s.opts.BatchWait.Microseconds(),
	}
	if g.InsertFlushes > 0 {
		g.AvgInsertBatch = float64(s.insertBatchedPts.Load()) / float64(g.InsertFlushes)
	}
	if g.ClassifyFlushes > 0 {
		g.AvgClassifyBatch = float64(s.classifyBatchedPts.Load()) / float64(g.ClassifyFlushes)
	}
	return g
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsPayload{Engine: s.b.Stats(), Server: s.gauges()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// ---- response writing -------------------------------------------------

// reject bounces an admitted-but-unqueueable request with 429 and the
// Retry-After hint: the queue is the latency budget, and a full queue
// means the server is past its knee.
func (s *Server) reject(w http.ResponseWriter) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	httpError(w, http.StatusTooManyRequests, "admission queue full")
}

// writeAck answers an insert in the request's own tier: an ack frame,
// encoded into sc, for binary clients, JSON otherwise.
func (s *Server) writeAck(w http.ResponseWriter, r *http.Request, sc *reqScratch, n int64) {
	if r.Header.Get("Content-Type") == ContentTypeFrame {
		sc.reply = AppendAckFrame(sc.reply[:0], n)
		w.Header().Set("Content-Type", ContentTypeFrame)
		w.WriteHeader(http.StatusOK)
		w.Write(sc.reply)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": n})
}

// jsonClassifyResult is the JSON shape of classify responses.
type jsonClassifyResult struct {
	Clusters  []int     `json:"clusters"`
	Distances []float64 `json:"distances"`
}

// writeClassifyResult answers a classify request in its own tier: a
// result frame, encoded into sc, for binary clients, JSON otherwise.
func (s *Server) writeClassifyResult(w http.ResponseWriter, r *http.Request, sc *reqScratch, idx []int, dist []float64) {
	if r.Header.Get("Content-Type") == ContentTypeFrame {
		sc.reply = AppendClassifyResultFrame(sc.reply[:0], idx, dist)
		w.Header().Set("Content-Type", ContentTypeFrame)
		w.WriteHeader(http.StatusOK)
		w.Write(sc.reply)
		return
	}
	if idx == nil {
		idx, dist = []int{}, []float64{}
	}
	writeJSON(w, http.StatusOK, jsonClassifyResult{Clusters: idx, Distances: dist})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed response write means the client is gone; there is nothing
	// useful to do with the error on the server side.
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error body. Binary-tier clients parse the
// status code, so JSON here is fine for both tiers.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
