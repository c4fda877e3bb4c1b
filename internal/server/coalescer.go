package server

import (
	"errors"
	"sync"
	"sync/atomic"

	"kcore"
	"kcore/internal/server/wire"
)

// The ingest coalescer funnels concurrent POST /v1/batch requests through
// one engine Apply call. Requests that arrive while a flush is in progress
// queue up; the flusher goroutine then concatenates every queued batch (in
// arrival order) and applies them together, amortizing the engine's write
// lock, validation pass, and batch execution across callers. See the wire
// package comment for the externally visible contract.

// Sentinel ingest errors, mapped to wire codes by toWireError.
var (
	errShuttingDown = errors.New("server is shutting down")
	errOverloaded   = errors.New("ingest queue is full")
)

// pending is one queued batch request awaiting its flush.
type pending struct {
	batch kcore.Batch
	done  chan flushResult // buffered (1): the flusher never blocks on it
}

// flushResult is what the flusher hands back to a waiting request.
type flushResult struct {
	resp *wire.BatchResponse
	err  error
}

// ingestStats are the coalescer's lifetime counters (atomic: read by the
// stats handler without the queue lock).
type ingestStats struct {
	flushes   atomic.Uint64
	requests  atomic.Uint64
	grouped   atomic.Uint64
	fallbacks atomic.Uint64
	rejected  atomic.Uint64
}

func (s *ingestStats) wire() wire.IngestStats {
	return wire.IngestStats{
		Flushes:   s.flushes.Load(),
		Requests:  s.requests.Load(),
		Grouped:   s.grouped.Load(),
		Fallbacks: s.fallbacks.Load(),
		Rejected:  s.rejected.Load(),
	}
}

// coalescer owns the ingest queue and its single flusher goroutine.
type coalescer struct {
	engine     *kcore.Engine
	maxPending int // max updates buffered across queued requests
	// observe, when non-nil, is told every engine Apply outcome (nil on
	// success) — the server's availability state machine watches for
	// durability-failure streaks through it. Set before the first submit.
	observe func(error)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pending
	queued int // total updates in queue
	closed bool

	wg    sync.WaitGroup
	stats ingestStats
}

func newCoalescer(e *kcore.Engine, maxPending int) *coalescer {
	c := &coalescer{engine: e, maxPending: maxPending}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(1)
	go c.run()
	return c
}

// submit enqueues a batch and blocks until its flush completes. The batch
// must already be validated for shape (non-empty, within the per-request
// size limit); submit only enforces the queue-wide backpressure budget.
func (c *coalescer) submit(batch kcore.Batch) (*wire.BatchResponse, error) {
	p := &pending{batch: batch, done: make(chan flushResult, 1)}
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		return nil, errShuttingDown
	case len(c.queue) > 0 && c.queued+len(batch) > c.maxPending:
		// An empty queue always admits one request (otherwise a single batch
		// larger than the budget could never be served); a non-empty queue
		// over budget sheds load instead of growing without bound.
		c.mu.Unlock()
		c.stats.rejected.Add(1)
		return nil, errOverloaded
	}
	c.queue = append(c.queue, p)
	c.queued += len(batch)
	c.cond.Signal()
	c.mu.Unlock()
	r := <-p.done
	return r.resp, r.err
}

// close stops admitting requests, waits for the flusher to drain every
// queued request, and stops it.
func (c *coalescer) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// run is the flusher goroutine: it repeatedly takes the whole queue and
// flushes it as one group, draining the queue before exiting on close.
func (c *coalescer) run() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		reqs := c.queue
		c.queue = nil
		c.queued = 0
		c.mu.Unlock()
		c.flush(reqs)
	}
}

// flush applies one group of requests and hands each its result.
func (c *coalescer) flush(reqs []*pending) {
	c.stats.flushes.Add(1)
	c.stats.requests.Add(uint64(len(reqs)))
	if len(reqs) == 1 {
		info, err := c.engine.Apply(reqs[0].batch)
		c.observed(err)
		reqs[0].done <- singleResult(info, err, 1)
		return
	}
	c.stats.grouped.Add(uint64(len(reqs)))

	combined := make(kcore.Batch, 0, totalLen(reqs))
	for _, r := range reqs {
		combined = append(combined, r.batch...)
	}
	info, err := c.engine.Apply(combined)
	c.observed(err)
	if err != nil {
		// A *kcore.HookError means the combined batch APPLIED in memory but
		// the durability hook (WAL append) failed afterwards: re-applying
		// individual requests would double-apply them, so every caller gets
		// the persistence error instead.
		var he *kcore.HookError
		if errors.As(err, &he) {
			for _, r := range reqs {
				r.done <- flushResult{err: err}
			}
			return
		}
		// The combined group failed validation — one request's invalid
		// update must not fail its co-flushed neighbors. Re-apply each
		// request individually, in arrival order, so every caller gets its
		// own success or its own error.
		c.stats.fallbacks.Add(1)
		for _, r := range reqs {
			ri, rerr := c.engine.Apply(r.batch)
			c.observed(rerr)
			r.done <- singleResult(ri, rerr, 1)
		}
		return
	}
	c.splitGroup(reqs, info)
}

// observed forwards one Apply outcome to the observer, if any.
func (c *coalescer) observed(err error) {
	if c.observe != nil {
		c.observe(err)
	}
}

// splitGroup maps a successful combined BatchInfo back onto the individual
// requests of the flush group.
func (c *coalescer) splitGroup(reqs []*pending, info kcore.BatchInfo) {
	if info.Recomputed {
		// Wholesale recomputation has no per-update attribution (Updates is
		// nil): report group-final seq and submitted counts, per the
		// documented contract.
		for _, r := range reqs {
			r.done <- flushResult{resp: &wire.BatchResponse{
				Seq:         info.Seq,
				Applied:     len(r.batch),
				Recomputed:  true,
				FlushedWith: len(reqs),
			}}
		}
		return
	}
	off := 0
	for _, r := range reqs {
		resp := &wire.BatchResponse{Seq: info.Seq, FlushedWith: len(reqs)}
		var seen map[int]struct{}
		for _, u := range info.Updates[off : off+len(r.batch)] {
			if u.Coalesced {
				resp.Coalesced++
				continue
			}
			resp.Applied++
			resp.Visited += u.Visited
			for _, v := range u.CoreChanged {
				if seen == nil {
					seen = make(map[int]struct{})
				}
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
				resp.CoreChanged = append(resp.CoreChanged, v)
			}
		}
		off += len(r.batch)
		r.done <- flushResult{resp: resp}
	}
}

// singleResult converts an un-grouped Apply outcome into a flushResult.
func singleResult(info kcore.BatchInfo, err error, flushedWith int) flushResult {
	if err != nil {
		return flushResult{err: err}
	}
	return flushResult{resp: &wire.BatchResponse{
		Seq:         info.Seq,
		Applied:     info.Applied,
		Coalesced:   info.Coalesced,
		Recomputed:  info.Recomputed,
		FlushedWith: flushedWith,
		CoreChanged: info.Total.CoreChanged,
		Visited:     info.Total.Visited,
	}}
}

func totalLen(reqs []*pending) int {
	n := 0
	for _, r := range reqs {
		n += len(r.batch)
	}
	return n
}
