package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"birch/internal/cf"
	"birch/internal/core"
	"birch/internal/vec"
)

// ErrOverloaded reports a 429 from the server: the admission queue was
// full. Returned errors wrap it via OverloadedError, which carries the
// Retry-After hint; test with errors.Is(err, ErrOverloaded).
var ErrOverloaded = errors.New("server: overloaded")

// OverloadedError is the concrete 429 error, carrying the server's
// Retry-After hint in seconds.
type OverloadedError struct {
	RetryAfter int
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("server: overloaded (retry after %ds)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Client is a stdlib HTTP client for a birchd daemon. Batch methods use
// the binary frame tier; single-point methods use JSON. A Client is
// safe for concurrent use; its transport pools connections per host.
//
// Batch request frames and their responses live in pooled buffers. A
// response buffer never leaves the call that read it: acks and results
// are decoded into fresh values. A request frame goes back to the pool
// only once the transport has reported it written whole and Do has
// returned a response; otherwise the transport may still be reading it
// (a server can answer before it has read the body), and it is left to
// the GC. Every other response is read into a fresh slice. No response
// may exceed maxFrameBytes, the bound the server puts on requests.
type Client struct {
	base string
	hc   *http.Client
}

// clientWriteBuffer is the transport's per-connection write buffer. A
// frame of typical size is copied once into it, instead of through
// net/http's per-request copy buffer.
const clientWriteBuffer = 64 << 10

// buffer is a pooled byte buffer: a request frame or a response body.
type buffer struct{ b []byte }

// bufferPool pools buffers of one kind. Request frames and their
// responses have pools of their own, so a buffer keeps the size of what
// it holds.
type bufferPool struct{ p sync.Pool }

var framePool, bodyPool bufferPool

func (bp *bufferPool) get() *buffer {
	if buf, ok := bp.p.Get().(*buffer); ok {
		return buf
	}
	return new(buffer)
}

// put returns buf to the pool, unless it grew past maxPooledBytes.
func (bp *bufferPool) put(buf *buffer) {
	if poolable(buf.b) {
		buf.b = buf.b[:0]
		bp.p.Put(buf)
	}
}

// NewClient returns a client for the daemon at base, e.g.
// "http://127.0.0.1:7461". The transport keeps enough idle connections
// to sustain a load generator's concurrency.
func NewClient(base string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
		IdleConnTimeout:     90 * time.Second,
		WriteBufferSize:     clientWriteBuffer,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr}}
}

// roundTrip issues one request with body (nil for none) and reads the
// response body, at most maxFrameBytes, into dst's storage. It returns
// the bytes read, also on an error, so that the caller can reuse their
// storage. Non-2xx responses become errors; 429 maps to ErrOverloaded.
// wrote reports whether Do returned a response and, by the time that
// response was read, the transport's last attempt had written body
// whole: only then may the caller reuse body.
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, body, dst []byte) (resp []byte, wrote bool, err error) {
	var rd io.Reader
	var written atomic.Bool
	if body != nil {
		rd = bytes.NewReader(body)
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			// A retry writes body again; only the last attempt counts.
			GetConn:      func(string) { written.Store(false) },
			WroteRequest: func(info httptrace.WroteRequestInfo) { written.Store(info.Err == nil) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return dst, false, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	hresp, err := c.hc.Do(req)
	if err != nil {
		return dst, false, err
	}
	defer hresp.Body.Close()
	resp, err = readBody(dst, hresp.Body, hresp.ContentLength, maxFrameBytes)
	if err == nil {
		err = statusError(hresp, resp)
	}
	return resp, written.Load(), err
}

// statusError maps a non-2xx response to an error: 429 to an
// OverloadedError, anything else to the server's JSON error message
// when body carries one.
func statusError(resp *http.Response, body []byte) error {
	if resp.StatusCode == http.StatusTooManyRequests {
		retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if retry <= 0 {
			retry = 1
		}
		return &OverloadedError{RetryAfter: retry}
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (%d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: status %d", resp.StatusCode)
	}
	return nil
}

// do issues one request and returns the response body, read into a
// fresh slice, on 2xx. Non-2xx responses become errors; 429 maps to
// ErrOverloaded.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	resp, _, err := c.roundTrip(ctx, method, path, contentType, body, nil)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// post sends frame, a framePool buffer, and returns the response in a
// bodyPool buffer, which the caller releases. frame goes back to
// framePool only when roundTrip reports it written whole.
func (c *Client) post(ctx context.Context, path string, frame *buffer) (*buffer, error) {
	resp := bodyPool.get()
	var wrote bool
	var err error
	resp.b, wrote, err = c.roundTrip(ctx, http.MethodPost, path, ContentTypeFrame, frame.b, resp.b)
	if wrote {
		framePool.put(frame)
	}
	if err != nil {
		bodyPool.put(resp)
		return nil, err
	}
	return resp, nil
}

// Insert sends one point through the JSON tier.
func (c *Client) Insert(ctx context.Context, p vec.Vector) error {
	body, err := json.Marshal(jsonPoints{Point: p})
	if err != nil {
		return err
	}
	_, err = c.do(ctx, http.MethodPost, "/insert", "application/json", body)
	return err
}

// InsertBatch sends a batch through the binary tier and returns the
// server's accepted count.
func (c *Client) InsertBatch(ctx context.Context, pts []vec.Vector, dim int) (int64, error) {
	frame := framePool.get()
	var err error
	if frame.b, err = AppendPointsFrame(frame.b, pts, dim); err != nil {
		framePool.put(frame)
		return 0, err
	}
	return c.insertFrame(ctx, frame)
}

// InsertSparseBatch sends a sparse batch through the binary tier
// (MsgSparsePoints) and returns the server's accepted count. For
// mostly-zero high-dimensional points this moves a small fraction of
// the dense frame's bytes and keeps the engine on its sparse fast path.
func (c *Client) InsertSparseBatch(ctx context.Context, sps []vec.Sparse, dim int) (int64, error) {
	frame := framePool.get()
	var err error
	if frame.b, err = AppendSparsePointsFrame(frame.b, sps, dim); err != nil {
		framePool.put(frame)
		return 0, err
	}
	return c.insertFrame(ctx, frame)
}

// insertFrame posts a points frame to /insert-batch and decodes the ack.
func (c *Client) insertFrame(ctx context.Context, frame *buffer) (int64, error) {
	resp, err := c.post(ctx, "/insert-batch", frame)
	if err != nil {
		return 0, err
	}
	defer bodyPool.put(resp)
	typ, payload, err := DecodeFrame(resp.b)
	if err != nil || typ != MsgAck {
		return 0, fmt.Errorf("server: bad ack frame (type %d): %w", typ, err)
	}
	return DecodeAck(payload)
}

// Classify classifies one point through the JSON tier.
func (c *Client) Classify(ctx context.Context, p vec.Vector) (int, float64, error) {
	body, err := json.Marshal(jsonPoints{Point: p})
	if err != nil {
		return 0, 0, err
	}
	data, err := c.do(ctx, http.MethodPost, "/classify", "application/json", body)
	if err != nil {
		return 0, 0, err
	}
	var res jsonClassifyResult
	if err := json.Unmarshal(data, &res); err != nil {
		return 0, 0, err
	}
	if len(res.Clusters) != 1 || len(res.Distances) != 1 {
		return 0, 0, fmt.Errorf("server: %d results for 1 point", len(res.Clusters))
	}
	return res.Clusters[0], res.Distances[0], nil
}

// ClassifyBatch classifies a batch through the binary tier.
func (c *Client) ClassifyBatch(ctx context.Context, pts []vec.Vector, dim int) ([]int, []float64, error) {
	frame := framePool.get()
	var err error
	if frame.b, err = AppendPointsFrame(frame.b, pts, dim); err != nil {
		framePool.put(frame)
		return nil, nil, err
	}
	return c.classifyFrame(ctx, frame, len(pts))
}

// ClassifySparseBatch classifies a sparse batch through the binary tier.
// Results are identical to ClassifyBatch over the densified points
// (which is how the server computes them).
func (c *Client) ClassifySparseBatch(ctx context.Context, sps []vec.Sparse, dim int) ([]int, []float64, error) {
	frame := framePool.get()
	var err error
	if frame.b, err = AppendSparsePointsFrame(frame.b, sps, dim); err != nil {
		framePool.put(frame)
		return nil, nil, err
	}
	return c.classifyFrame(ctx, frame, len(sps))
}

// classifyFrame posts a frame of n points to /classify-batch and decodes
// the answers into fresh slices.
func (c *Client) classifyFrame(ctx context.Context, frame *buffer, n int) ([]int, []float64, error) {
	resp, err := c.post(ctx, "/classify-batch", frame)
	if err != nil {
		return nil, nil, err
	}
	defer bodyPool.put(resp)
	typ, payload, err := DecodeFrame(resp.b)
	if err != nil || typ != MsgClassifyResult {
		return nil, nil, fmt.Errorf("server: bad classify frame (type %d): %w", typ, err)
	}
	idx, dist, err := DecodeClassifyResultInto(payload, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(idx) != n {
		return nil, nil, fmt.Errorf("server: %d results for %d points", len(idx), n)
	}
	return idx, dist, nil
}

// Summaries pulls the daemon's per-shard CF summaries over the binary
// tier, bit-exact.
func (c *Client) Summaries(ctx context.Context) (cf.CoreKind, int, []core.Summary, error) {
	data, err := c.do(ctx, http.MethodGet, "/summary", "", nil)
	if err != nil {
		return 0, 0, nil, err
	}
	typ, payload, err := DecodeFrame(data)
	if err != nil || typ != MsgSummaries {
		return 0, 0, nil, fmt.Errorf("server: bad summaries frame (type %d): %w", typ, err)
	}
	return DecodeSummaries(payload)
}

// Flush asks the daemon to fold all accepted points into its serving
// snapshot.
func (c *Client) Flush(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodPost, "/flush", "", nil)
	return err
}

// Stats fetches the daemon's engine and serving gauges.
func (c *Client) Stats(ctx context.Context) (StatsPayload, error) {
	var st StatsPayload
	data, err := c.do(ctx, http.MethodGet, "/stats", "", nil)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(data, &st)
	return st, err
}

// Snapshot fetches the daemon's snapshot metadata (with centroids).
func (c *Client) Snapshot(ctx context.Context) (snapshotMeta, error) {
	var meta snapshotMeta
	data, err := c.do(ctx, http.MethodGet, "/snapshot", "", nil)
	if err != nil {
		return meta, err
	}
	err = json.Unmarshal(data, &meta)
	return meta, err
}

// Healthz probes liveness: nil means serving, an error means down or
// draining.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", "", nil)
	return err
}
