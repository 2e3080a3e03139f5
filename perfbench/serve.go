package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"birch/internal/core"
	"birch/internal/pager"
	"birch/internal/server"
	"birch/internal/stream"
	"birch/internal/vec"
)

// rig is one in-process birchd: a durable two-shard stream engine on a
// pager.DirFS store, behind server.New with birchd's admission defaults,
// listening on loopback.
type rig struct {
	spec  serveSpec
	cfg   core.Config
	dir   string
	pool  []vec.Vector
	epoch time.Time

	eng     *stream.Engine
	tb      *timedBackend // traced runs only
	io      *ioRecorder   // traced runs only
	srv     *server.Server
	base    string
	served  chan error
	clients []client // created once, so every stage reuses their connections

	acked    atomic.Int64 // points acked over HTTP
	insertK  atomic.Int64 // next insert batch
	classify atomic.Int64 // next classify batch
}

// startRig opens a fresh store in dir, preloads it, publishes the first
// snapshot and starts listening: the serving set-up.
func startRig(dir string, spec serveSpec, pool []vec.Vector, traced bool, epoch time.Time) (*rig, error) {
	if len(pool) < spec.Preload+spec.Batch {
		return nil, fmt.Errorf("serving pool of %d points is smaller than the preload", len(pool))
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{spec: spec, cfg: spec.config(), dir: dir, pool: pool, epoch: epoch}
	var fs pager.FS = pager.DirFS(dir)
	if traced {
		r.io = &ioRecorder{}
		fs = timedFS{FS: fs, rec: r.io}
	}
	eng, _, err := stream.Open(r.cfg, stream.Options{Shards: spec.Shards, CompactInterval: spec.Compact},
		&stream.DurableOptions{FS: fs})
	if err != nil {
		return nil, err
	}
	r.eng = eng
	ctx := context.Background()
	for i := 0; i < spec.Preload; i += spec.Batch {
		if err := eng.InsertBatch(ctx, pool[i:min(i+spec.Batch, spec.Preload)]); err != nil {
			_ = eng.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		_ = eng.Close()
		return nil, fmt.Errorf("first publish: %w", err)
	}
	var b server.Backend = server.EngineBackend{Eng: eng, Cfg: r.cfg}
	if traced {
		r.tb = newTimedBackend(b, epoch)
		b = r.tb
	}
	r.srv = server.New(b, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = r.srv.Shutdown(ctx)
		return nil, err
	}
	r.base = "http://" + l.Addr().String()
	r.clients = newClients(r.base)
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(l) }()
	return r, nil
}

// shutdown drains the server (which closes the engine) and waits for
// the listener goroutine.
func (r *rig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// batchAt returns the k-th request batch of a cyclic walk over pool
// positions [lo, len(pool)).
func (r *rig) batchAt(lo int, k int64) []vec.Vector {
	b := r.spec.Batch
	slots := (len(r.pool) - lo) / b
	i := lo + int(k%int64(slots))*b
	return r.pool[i : i+b]
}

// Inserts stream the pool after the preload; queries walk it from the
// start, so they hit both preloaded and fresh regions.
func (r *rig) nextInsert() []vec.Vector {
	return r.batchAt(r.spec.Preload, r.insertK.Add(1)-1)
}
func (r *rig) nextQuery() []vec.Vector { return r.batchAt(0, r.classify.Add(1)-1) }

// opKind is what one client request does.
type opKind int

const (
	opInsert opKind = iota
	opClassify
)

// client is one load-generator connection and the operations it cycles
// through. With two or more CPUs the insert and classify clients each
// own a connection; on one CPU a single client alternates both.
type client struct {
	c     *server.Client
	kinds []opKind
}

// clientCount caps the load generator's connections at nproc.
func clientCount() int { return min(2, runtime.NumCPU()) }

func newClients(base string) []client {
	if clientCount() == 2 {
		return []client{
			{c: server.NewClient(base), kinds: []opKind{opInsert}},
			{c: server.NewClient(base), kinds: []opKind{opClassify}},
		}
	}
	return []client{{c: server.NewClient(base), kinds: []opKind{opInsert, opClassify}}}
}

// reqTrace collects the traced run's per-request spans and the server
// pre/post splits measured against the timing backend.
type reqTrace struct {
	tr              *Tracer
	mu              sync.Mutex
	insPre, insPost []time.Duration
	clsPre, clsPost []time.Duration
	unmatched       int64
	nextReq         atomic.Int64
}

// stageResult is one open-loop stage.
type stageResult struct {
	ins, cls []Sample
	errs     int64
}

// runStage drives every client open-loop at rate requests per second
// per operation kind for dur. fresh, when set, is told about each ack.
func (r *rig) runStage(rate float64, dur time.Duration, fresh *freshness, rt *reqTrace) stageResult {
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var out stageResult
	for _, c := range r.clients {
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			crate := rate * float64(len(c.kinds))
			samples := OpenLoop(realClock{}, start, crate, dur, time.Second, func(k int, due time.Time) error {
				return r.do(c.c, c.kinds[k%len(c.kinds)], due, fresh, rt)
			})
			mu.Lock()
			defer mu.Unlock()
			for k, s := range samples {
				if s.Err {
					out.errs++
				}
				if c.kinds[k%len(c.kinds)] == opInsert {
					out.ins = append(out.ins, s)
				} else {
					out.cls = append(out.cls, s)
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// do issues one request of the given kind.
func (r *rig) do(c *server.Client, kind opKind, due time.Time, fresh *freshness, rt *reqTrace) error {
	ctx := context.Background()
	var insSeq, snapSeq int64
	if rt != nil {
		insSeq, snapSeq = r.tb.insSeq.Load(), r.tb.snapSeq.Load()
	}
	send := time.Now()
	if kind == opInsert {
		n, err := c.InsertBatch(ctx, r.nextInsert(), r.spec.Dim)
		ack := time.Now()
		if err != nil {
			return err
		}
		total := r.acked.Add(n)
		if fresh != nil {
			fresh.ack(ack, int64(r.spec.Preload)+total)
		}
		if rt != nil {
			rt.request("insert", due, send, ack, r.tb.insSeq.Load() == insSeq+1,
				r.tb.insEntry.Load(), r.tb.insExit.Load(), r.epoch)
		}
		return nil
	}
	_, _, err := c.ClassifyBatch(ctx, r.nextQuery(), r.spec.Dim)
	reply := time.Now()
	if err != nil {
		return err
	}
	if rt != nil {
		at := r.tb.snapAt.Load()
		rt.request("classify", due, send, reply, r.tb.snapSeq.Load() == snapSeq+1, at, at, r.epoch)
	}
	return nil
}

// request records one request's spans: the root from due time to
// reply, the generator's wait, the server as the client sees it, and —
// when the backend call is matched to this request — the engine call
// inside it. entry and exit are the backend's timestamps (equal for
// classify, whose collector only marks its snapshot load).
func (rt *reqTrace) request(kind string, due, send, done time.Time, matched bool, entry, exit int64, epoch time.Time) {
	id := rt.nextReq.Add(1)
	root := rt.tr.Add("request."+kind, 0, id, due, done)
	if send.After(due) {
		rt.tr.Add("loadgen.wait", root, id, due, send)
	}
	srv := rt.tr.Add("server."+kind, root, id, send, done)
	if !matched {
		rt.mu.Lock()
		rt.unmatched++
		rt.mu.Unlock()
		return
	}
	in, out := epoch.Add(time.Duration(entry)), epoch.Add(time.Duration(exit))
	if kind == "insert" {
		rt.tr.Add("stream.insert_batch", srv, id, in, out)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if kind == "insert" {
		rt.insPre = append(rt.insPre, in.Sub(send))
		rt.insPost = append(rt.insPost, done.Sub(out))
	} else {
		rt.clsPre = append(rt.clsPre, in.Sub(send))
		rt.clsPost = append(rt.clsPost, done.Sub(out))
	}
}

// freshness measures how long an acked insert takes to become visible:
// from each ack until the published snapshot covers the acked total.
type freshness struct {
	mu   sync.Mutex
	acks []ackAt
	next int
	lags []time.Duration
}

type ackAt struct {
	at    time.Time
	total int64
}

func (f *freshness) ack(at time.Time, total int64) {
	f.mu.Lock()
	f.acks = append(f.acks, ackAt{at, total})
	f.mu.Unlock()
}

// observe resolves every ack the published point count now covers.
func (f *freshness) observe(now time.Time, published int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.next < len(f.acks) && f.acks[f.next].total <= published {
		f.lags = append(f.lags, now.Sub(f.acks[f.next].at))
		f.next++
	}
}

func (f *freshness) pending() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next < len(f.acks)
}

// monitor samples the engine's serving gauges — the numbers /stats
// reports, read in process so that the benchmark never holds more
// connections than clients — every pollEvery until stop is closed.
type monitor struct {
	lag    []int64
	ageMax int64
}

const pollEvery = 2 * time.Millisecond

func (r *rig) monitor(stop <-chan struct{}, fresh *freshness, m *monitor) {
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			st := r.eng.Stats()
			fresh.observe(now, st.Published)
			m.lag = append(m.lag, st.CompactorLagPoints)
			m.ageMax = max(m.ageMax, st.SnapshotAgeTicks)
		}
	}
}

// nominalOut is the nominal stage's outcome.
type nominalOut struct {
	stage     stageResult
	fresh     []time.Duration
	mon       monitor
	merge     []time.Duration
	flush     time.Duration
	compacted int64
	gauges    server.ServerGauges
}

// runNominal warms the connections up, then runs the fixed-rate stage
// with the freshness monitor (and, when traced, a periodic timed merge
// of the shard summaries), then flushes.
func (r *rig) runNominal(dur time.Duration, rt *reqTrace) (nominalOut, error) {
	var out nominalOut
	warm := r.runStage(r.spec.Rate, 300*time.Millisecond, nil, nil)
	if warm.errs > 0 {
		return out, fmt.Errorf("warm-up: %d failed requests", warm.errs)
	}
	fresh := &freshness{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); r.monitor(stop, fresh, &out.mon) }()
	if rt != nil {
		wg.Add(1)
		go func() { defer wg.Done(); out.merge = r.timeMerges(stop) }()
	}
	c0 := r.eng.Stats().Compactions
	out.stage = r.runStage(r.spec.Rate, dur, fresh, rt)
	// Let the acks of the stage's tail reach a snapshot, so the
	// freshness tail is not cut off.
	deadline := time.Now().Add(4 * r.spec.Compact)
	for fresh.pending() && time.Now().Before(deadline) {
		time.Sleep(pollEvery)
	}
	close(stop)
	wg.Wait()
	out.compacted = r.eng.Stats().Compactions - c0
	fresh.mu.Lock()
	out.fresh = fresh.lags
	unresolved := len(fresh.acks) - fresh.next
	fresh.mu.Unlock()
	if unresolved > 0 {
		return out, fmt.Errorf("%d acked inserts never became visible", unresolved)
	}
	c := server.NewClient(r.base)
	t0 := time.Now()
	if err := c.Flush(context.Background()); err != nil {
		return out, err
	}
	out.flush = time.Since(t0)
	st, err := c.Stats(context.Background())
	if err != nil {
		return out, err
	}
	out.gauges = st.Server
	return out, nil
}

// timeMerges times stream.MergeServingSnapshot over the engine's shard
// summaries once per compaction period until stop is closed.
func (r *rig) timeMerges(stop <-chan struct{}) []time.Duration {
	t := time.NewTicker(r.spec.Compact)
	defer t.Stop()
	var out []time.Duration
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			sums, err := r.eng.ShardSummaries(context.Background())
			if err != nil {
				return out
			}
			t0 := time.Now()
			if _, err := stream.MergeServingSnapshot(r.cfg, sums); err != nil {
				return out
			}
			out = append(out, time.Since(t0))
		}
	}
}

// checkPublished verifies that after a flush the published snapshot
// holds exactly the preload plus every acked point.
func (r *rig) checkPublished(where string) error {
	if err := r.eng.Flush(context.Background()); err != nil {
		return err
	}
	want := int64(r.spec.Preload) + r.acked.Load()
	if got := r.eng.Stats().Published; got != want {
		return fmt.Errorf("%s: published %d points, acked+preload is %d", where, got, want)
	}
	return nil
}

// checkClassify compares the server's answer for one batch, on a
// quiesced engine, with a direct Snapshot.ClassifyBatch.
func (r *rig) checkClassify() error {
	q := r.pool[:r.spec.Batch]
	idx, dist, err := server.NewClient(r.base).ClassifyBatch(context.Background(), q, r.spec.Dim)
	if err != nil {
		return err
	}
	wantIdx, wantDist, ok := r.eng.Snapshot().ClassifyBatch(q, 1)
	if !ok {
		return errors.New("quiesced engine has no snapshot")
	}
	for i := range q {
		if idx[i] != wantIdx[i] || math.Float64bits(dist[i]) != math.Float64bits(wantDist[i]) {
			return fmt.Errorf("classify point %d: server (%d, %v), snapshot (%d, %v)", i, idx[i], dist[i], wantIdx[i], wantDist[i])
		}
	}
	return nil
}

// copyDir copies every regular file of src into a fresh dst: the state
// a kill -9 leaves when the OS page cache survives.
func copyDir(src, dst string) (int64, error) {
	if err := os.RemoveAll(dst); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		n, err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func copyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// recoverOnce copies the crash image and times stream.Open on the copy.
func recoverOnce(image, dir string, spec serveSpec, wantPoints int64) (time.Duration, *stream.RecoveryStats, error) {
	if _, err := copyDir(image, dir); err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	eng, rec, err := stream.Open(spec.config(), stream.Options{Shards: spec.Shards}, &stream.DurableOptions{FS: pager.DirFS(dir)})
	d := time.Since(t0)
	if err != nil {
		return 0, nil, fmt.Errorf("recovery: %w", err)
	}
	if cerr := eng.Close(); cerr != nil {
		return 0, nil, fmt.Errorf("closing recovered engine: %w", cerr)
	}
	if rec.Points != wantPoints {
		return 0, nil, fmt.Errorf("recovered %d points, acked+preload at the crash was %d", rec.Points, wantPoints)
	}
	return d, rec, nil
}
