package server

import (
	"context"
	"errors"
	"time"

	"birch/internal/vec"
)

// ErrNoSnapshot is returned to classify requests admitted before the
// backend has published its first snapshot (or when it has no
// centroids yet). Clients should insert or flush first.
var ErrNoSnapshot = errors.New("server: no snapshot published yet")

// insertReq is one admitted insert request parked in the insert queue.
// Exactly one of pts/sps is non-empty (a request body is one wire tier);
// binary-tier points alias the handler's request scratch, which stays
// out of the pool until the collector has replied. The collector folds
// the points into the backend and posts exactly one value on reply.
// reply is buffered (capacity 1) by the handler, so the collector's send
// can never block on a handler that gave up.
type insertReq struct {
	pts   []vec.Vector
	sps   []vec.Sparse
	reply chan<- error
}

// classifyReq is one admitted classify request. The collector fills
// idx/dist (one slot per point, in the handler's request scratch) and
// posts the batch error — nil, or ErrNoSnapshot — on reply.
type classifyReq struct {
	pts   []vec.Vector
	idx   []int
	dist  []float64
	reply chan<- error
}

// resetTimer arms t with d, first neutralizing any stale expiry. The
// collectors own their timers exclusively, so the drain-then-Reset
// dance is race-free.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// runInsertCollector owns the insert micro-batch: it parks admitted
// requests until either MaxBatch points are pending or BatchWait has
// passed since the first parked request, then folds them into the
// backend with a single InsertBatch call and acks every contributor.
// Coalescing preserves admission order — the backend applies points in
// slice order — so a deterministic client driving requests sequentially
// sees the exact tree a direct stream.Engine would build.
func (s *Server) runInsertCollector() {
	defer s.collectWG.Done()
	// The timer is only selected on while requests are pending, and
	// resetTimer neutralizes any stale expiry before re-arming, so the
	// initial duration is irrelevant.
	timer := time.NewTimer(time.Hour)
	var pending []*insertReq
	var points int
	var scratch []vec.Vector
	var spScratch []vec.Sparse

	flush := func() {
		if len(pending) == 0 {
			return
		}
		// Dense and sparse points coalesce into separate engine batches
		// (one backend call per tier per flush). A sequential client still
		// sees admission order: it waits for each ack before sending the
		// next request, so two of its requests never share a flush.
		scratch, spScratch = scratch[:0], spScratch[:0]
		for _, r := range pending {
			scratch = append(scratch, r.pts...)
			spScratch = append(spScratch, r.sps...)
		}
		var denseErr, sparseErr error
		if len(scratch) > 0 {
			denseErr = s.b.InsertBatch(context.Background(), scratch)
			if denseErr == nil {
				s.acceptedPts.Add(int64(len(scratch)))
			}
		}
		if len(spScratch) > 0 {
			sparseErr = s.b.InsertSparseBatch(context.Background(), spScratch)
			if sparseErr == nil {
				s.acceptedPts.Add(int64(len(spScratch)))
			}
		}
		s.insertFlushes.Add(1)
		s.insertBatchedPts.Add(int64(len(scratch) + len(spScratch)))
		for i, r := range pending {
			// Each request is one tier, so it gets its own tier's verdict.
			if len(r.sps) > 0 {
				r.reply <- sparseErr
			} else {
				r.reply <- denseErr
			}
			pending[i] = nil // drop the reference; the slice is reused
		}
		pending = pending[:0]
		points = 0
	}

	for {
		if len(pending) == 0 {
			select {
			case r := <-s.insertQ:
				pending = append(pending, r)
				points += len(r.pts) + len(r.sps)
				if points >= s.opts.MaxBatch {
					flush()
					continue
				}
				resetTimer(timer, s.opts.BatchWait)
			case <-s.quit:
				s.drainInsertQueue(&pending, flush)
				return
			}
			continue
		}
		select {
		case r := <-s.insertQ:
			pending = append(pending, r)
			points += len(r.pts) + len(r.sps)
			if points >= s.opts.MaxBatch {
				flush()
			}
		case <-timer.C:
			flush()
		case <-s.quit:
			s.drainInsertQueue(&pending, flush)
			return
		}
	}
}

// drainInsertQueue empties the insert queue after quit: everything
// already admitted (the handler got its request into the channel before
// the listener stopped) is still flushed, so a 200 ack is a durability
// promise regardless of shutdown timing.
func (s *Server) drainInsertQueue(pending *[]*insertReq, flush func()) {
	for {
		select {
		case r := <-s.insertQ:
			*pending = append(*pending, r)
		default:
			flush()
			return
		}
	}
}

// runClassifyCollector is the read-side twin: it coalesces admitted
// classify requests into one ClassifyBatchInto against a single snapshot
// load, into answer slices it reuses across flushes, then scatters the
// per-point results back. Per-point outputs are position-independent, so
// coalescing never changes any client's answer — it only amortizes the
// snapshot load and scan setup.
func (s *Server) runClassifyCollector() {
	defer s.collectWG.Done()
	// The timer is only selected on while requests are pending, and
	// resetTimer neutralizes any stale expiry before re-arming, so the
	// initial duration is irrelevant.
	timer := time.NewTimer(time.Hour)
	var pending []*classifyReq
	var points int
	var scratch []vec.Vector
	var idx []int
	var dist []float64

	flush := func() {
		if len(pending) == 0 {
			return
		}
		scratch = scratch[:0]
		for _, r := range pending {
			scratch = append(scratch, r.pts...)
		}
		snap := s.b.Snapshot()
		var ok bool
		idx, dist, ok = snap.ClassifyBatchInto(scratch, idx, dist, s.opts.ClassifyWorkers)
		s.classifyFlushes.Add(1)
		s.classifyBatchedPts.Add(int64(len(scratch)))
		off := 0
		for i, r := range pending {
			if ok {
				copy(r.idx, idx[off:off+len(r.pts)])
				copy(r.dist, dist[off:off+len(r.pts)])
				r.reply <- nil
			} else {
				r.reply <- ErrNoSnapshot
			}
			off += len(r.pts)
			pending[i] = nil
		}
		pending = pending[:0]
		points = 0
	}

	for {
		if len(pending) == 0 {
			select {
			case r := <-s.classifyQ:
				pending = append(pending, r)
				points += len(r.pts)
				if points >= s.opts.MaxBatch {
					flush()
					continue
				}
				resetTimer(timer, s.opts.BatchWait)
			case <-s.quit:
				s.drainClassifyQueue(&pending, flush)
				return
			}
			continue
		}
		select {
		case r := <-s.classifyQ:
			pending = append(pending, r)
			points += len(r.pts)
			if points >= s.opts.MaxBatch {
				flush()
			}
		case <-timer.C:
			flush()
		case <-s.quit:
			s.drainClassifyQueue(&pending, flush)
			return
		}
	}
}

// drainClassifyQueue answers every classify request still queued at
// shutdown rather than leaving its handler waiting.
func (s *Server) drainClassifyQueue(pending *[]*classifyReq, flush func()) {
	for {
		select {
		case r := <-s.classifyQ:
			*pending = append(*pending, r)
		default:
			flush()
			return
		}
	}
}
