package replicate

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/persist"
)

// PublisherOptions tunes the primary side. The zero value picks defaults.
type PublisherOptions struct {
	// HistoryBytes bounds the in-memory encoded-frame history kept for
	// resuming reconnecting followers without a snapshot. Default 4 MiB.
	HistoryBytes int
	// QueueBytes bounds the bytes queued per subscriber; a subscriber whose
	// transport cannot keep up past it is dropped (it reconnects and
	// resumes). Default 32 MiB.
	QueueBytes int
	// WALPath, when set, names the persist WAL file (persist.WALFile inside
	// the data directory); resume requests beyond the in-memory history are
	// served from it before falling back to a snapshot.
	WALPath string
	// WALResumeBytes bounds a file-served resume tail; a larger tail falls
	// back to a snapshot bootstrap instead (the snapshot is smaller at that
	// point). Default 64 MiB.
	WALResumeBytes int64
}

func (o PublisherOptions) withDefaults() PublisherOptions {
	if o.HistoryBytes <= 0 {
		o.HistoryBytes = 4 << 20
	}
	if o.QueueBytes <= 0 {
		o.QueueBytes = 32 << 20
	}
	if o.WALResumeBytes <= 0 {
		o.WALResumeBytes = 64 << 20
	}
	return o
}

// frame is one encoded WAL frame covering the engine seq range (start, seq].
type frame struct {
	start uint64
	seq   uint64
	data  []byte // immutable once published
}

// Publisher is the primary side of replication: it adds an apply hook to
// the engine (Engine.AddApplyHook), keeps a bounded frame history, and fans
// frames out to subscribers with per-subscriber bounded queues. One
// Publisher per engine; NewPublisher adds the hook, Close removes it.
type Publisher struct {
	engine     *kcore.Engine
	opts       PublisherOptions
	removeHook func()

	// mu is taken by the apply hook while the engine's write lock is held
	// (lock order: engine.mu -> pub.mu). Nothing holding mu may call into
	// the engine.
	mu       sync.Mutex
	head     uint64 // engine seq after the last published frame
	hist     []frame
	histSize int
	subs     map[*Subscription]struct{}
	closed   bool

	bootstraps uint64 // snapshot bootstraps served
	resumes    uint64 // in-memory history resumes served
	walResumes uint64 // on-disk WAL resumes served
	drops      uint64 // subscribers dropped for backpressure
}

// ErrClosed is returned by Subscribe after Close.
var ErrClosed = errors.New("replicate: publisher closed")

// ErrDropped is returned by Subscription.Next after the publisher dropped
// the subscriber for backpressure (or was closed): the stream must end and
// the follower reconnect.
var ErrDropped = errors.New("replicate: subscriber dropped")

// NewPublisher attaches a publisher to the engine's apply hooks. On an
// engine with a persist.Store, open the store first: hooks run in
// registration order, so each batch then reaches the WAL before it is
// published.
func NewPublisher(engine *kcore.Engine, opts PublisherOptions) *Publisher {
	p := &Publisher{
		engine: engine,
		opts:   opts.withDefaults(),
		subs:   make(map[*Subscription]struct{}),
		head:   engine.Seq(),
	}
	p.removeHook = engine.AddApplyHook(p.onApply)
	return p
}

// onApply is the engine apply hook: encode the batch as a WAL frame,
// extend the history, fan out. It runs under the engine write lock — keep
// it allocation-light and never call back into the engine. It never fails:
// replication mirrors the engine's in-memory state, which advanced even
// when an earlier hook (the WAL append) failed. A panic-repair record (no
// Updates, see kcore.AppliedBatch) is not a batch and is not shipped: the
// quarantined prefix reaches followers as a gap at the next frame.
func (p *Publisher) onApply(rec kcore.AppliedBatch) error {
	if len(rec.Updates) == 0 {
		return nil
	}
	data, err := persist.AppendWALFrame(nil, rec)
	if err != nil {
		// Unreachable: the engine validated the batch (no negative vertices,
		// known ops, at least one survivor). Dropping the frame would poison
		// every subscriber chain, so fail loudly instead of diverging.
		panic(fmt.Sprintf("replicate: encode applied batch: %v", err))
	}
	f := frame{start: rec.Start(), seq: rec.Seq, data: data}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	if len(p.hist) == 0 && p.head != f.start {
		// Batches applied between NewPublisher reading the seq and the hook
		// attaching are pre-history; restart the contiguous window here.
		p.head = f.start
	}
	p.hist = append(p.hist, f)
	p.histSize += len(f.data)
	for p.histSize > p.opts.HistoryBytes && len(p.hist) > 0 {
		p.histSize -= len(p.hist[0].data)
		p.hist[0] = frame{}
		p.hist = p.hist[1:]
	}
	p.head = f.seq
	for sub := range p.subs {
		sub.enqueue(f)
	}
	return nil
}

// histBase is the earliest seq resumable from memory (mu held).
func (p *Publisher) histBase() uint64 {
	if len(p.hist) > 0 {
		return p.hist[0].start
	}
	return p.head
}

// Bootstrap is what a new subscriber must send before live frames: either a
// full snapshot (Snapshot non-nil) or a resume backlog of encoded WAL
// frames tiling (from, BacklogSeq]. BacklogSeq is the seq the transport is
// at once the bootstrap is written; frames at or below it arriving from the
// live queue are skipped by the follower.
type Bootstrap struct {
	Snapshot []byte
	Backlog  [][]byte
	// BacklogSeq is the snapshot's seq, or the last backlog frame's (== the
	// resume point when the backlog is empty).
	BacklogSeq uint64
}

// Subscribe registers a subscriber and computes its bootstrap. When resume
// is true the publisher tries to serve a frame tail continuing exactly at
// `from` — from memory, then from the configured WAL file — and falls back
// to a snapshot; with resume false it always snapshots. The caller must
// Unsubscribe when the stream ends.
func (p *Publisher) Subscribe(remote string, from uint64, resume bool) (*Subscription, *Bootstrap, error) {
	sub := &Subscription{
		p:       p,
		remote:  remote,
		from:    from,
		started: time.Now(),
		notify:  make(chan struct{}, 1),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, nil, ErrClosed
	}
	// Register before computing the bootstrap: every frame applied from now
	// on lands in sub's queue, so bootstrap + queue tile with no gap (the
	// overlap at the boundary is handled by the follower's skip rule).
	p.subs[sub] = struct{}{}
	headReg := p.head
	if resume {
		if backlog, ok := p.memoryTail(from); ok {
			p.resumes++
			p.mu.Unlock()
			last := from
			if n := len(backlog); n > 0 {
				last = backlog[n-1].seq
			}
			return sub, &Bootstrap{Backlog: frameData(backlog), BacklogSeq: last}, nil
		}
	}
	p.mu.Unlock()

	if resume && p.opts.WALPath != "" && from < headReg {
		if backlog, ok := p.walTail(from, headReg); ok {
			p.mu.Lock()
			p.walResumes++
			p.mu.Unlock()
			return sub, &Bootstrap{Backlog: backlog, BacklogSeq: headReg}, nil
		}
	}

	// Snapshot fallback. The engine read lock is taken WITHOUT holding
	// p.mu (the apply hook takes p.mu under the engine write lock; holding
	// both here would invert that order). Frames applied during the capture
	// are already queued on sub and chain past the snapshot's seq.
	st := p.engine.Index()
	snap, err := persist.EncodeSnapshot(st)
	if err != nil {
		p.Unsubscribe(sub)
		return nil, nil, fmt.Errorf("replicate: encode bootstrap snapshot: %w", err)
	}
	p.mu.Lock()
	p.bootstraps++
	p.mu.Unlock()
	return sub, &Bootstrap{Snapshot: snap, BacklogSeq: st.Seq}, nil
}

// memoryTail collects history frames tiling (from, head] (mu held). It
// fails when the history no longer reaches back to `from` or `from` is not
// a frame boundary of this lineage.
func (p *Publisher) memoryTail(from uint64) ([]frame, bool) {
	if from > p.head || from < p.histBase() {
		return nil, false
	}
	if from == p.head {
		return nil, true
	}
	start := -1
	for i, f := range p.hist {
		if f.seq <= from {
			continue
		}
		if f.start != from {
			return nil, false // not a frame boundary: different lineage
		}
		start = i
		break
	}
	if start < 0 {
		return nil, false
	}
	tail := make([]frame, len(p.hist)-start)
	copy(tail, p.hist[start:])
	return tail, true
}

// walTail reads the on-disk WAL tail covering (from, upto], re-encoded as
// stream frames. It fails — sending the subscriber to the snapshot path —
// when the log does not contain a chain from exactly `from` up to `upto`
// (compacted away, torn, sealed with a deferred backlog, or mid-write), or
// when the tail exceeds the byte budget.
func (p *Publisher) walTail(from, upto uint64) ([][]byte, bool) {
	var out [][]byte
	var total int64
	cur := from
	_, _, err := persist.ScanWALFile(p.opts.WALPath, func(rec kcore.AppliedBatch) error {
		if rec.Seq <= from || rec.Seq > upto {
			return nil
		}
		if rec.Start() != cur {
			return fmt.Errorf("tail does not chain at seq %d", cur)
		}
		data, err := persist.AppendWALFrame(nil, rec)
		if err != nil {
			return err
		}
		if total += int64(len(data)); total > p.opts.WALResumeBytes {
			return fmt.Errorf("tail exceeds %d bytes", p.opts.WALResumeBytes)
		}
		out = append(out, data)
		cur = rec.Seq
		return nil
	})
	if err != nil || cur != upto {
		return nil, false
	}
	return out, true
}

func frameData(frames []frame) [][]byte {
	out := make([][]byte, len(frames))
	for i, f := range frames {
		out[i] = f.data
	}
	return out
}

// Unsubscribe removes a subscriber; idempotent.
func (p *Publisher) Unsubscribe(sub *Subscription) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.subs, sub)
}

// Close removes the engine apply hook and drops every subscriber. Streams
// end; reconnect attempts fail with ErrClosed.
func (p *Publisher) Close() {
	p.removeHook()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for sub := range p.subs {
		sub.drop("publisher closed")
	}
}

// SubscriberStats describes one connected subscriber.
type SubscriberStats struct {
	Remote      string
	FromSeq     uint64 // seq the subscriber asked to resume from (0 = bootstrap)
	SentSeq     uint64 // last seq handed to the subscriber's transport
	QueuedBytes int64
	ConnectedMS int64
}

// Stats is a point-in-time snapshot of the publisher's counters.
type Stats struct {
	HeadSeq      uint64
	HistoryBytes int64
	HistoryBase  uint64
	Subscribers  []SubscriberStats
	Bootstraps   uint64
	Resumes      uint64
	WALResumes   uint64
	Drops        uint64
}

// Stats reports the publisher's counters and per-subscriber progress.
func (p *Publisher) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		HeadSeq:      p.head,
		HistoryBytes: int64(p.histSize),
		HistoryBase:  p.histBase(),
		Bootstraps:   p.bootstraps,
		Resumes:      p.resumes,
		WALResumes:   p.walResumes,
		Drops:        p.drops,
	}
	for sub := range p.subs {
		st.Subscribers = append(st.Subscribers, SubscriberStats{
			Remote:      sub.remote,
			FromSeq:     sub.from,
			SentSeq:     sub.sent.Load(),
			QueuedBytes: int64(sub.queued),
			ConnectedMS: time.Since(sub.started).Milliseconds(),
		})
	}
	return st
}

// Subscription is one subscriber's live-frame queue. The transport goroutine
// waits on Notify, drains with Next, and acknowledges transport progress
// with MarkSent.
type Subscription struct {
	p       *Publisher
	remote  string
	from    uint64
	started time.Time
	notify  chan struct{}
	sent    atomic.Uint64

	// guarded by p.mu:
	queue   []frame
	queued  int
	dropped string // non-empty once dropped; queue is discarded
}

// enqueue appends a frame (p.mu held). Overflow drops the subscriber whole:
// partial delivery would break the frame chain, so the follower must
// reconnect and resume instead.
func (s *Subscription) enqueue(f frame) {
	if s.dropped != "" {
		return
	}
	if s.queued+len(f.data) > s.p.opts.QueueBytes {
		s.p.drops++
		s.drop("backpressure")
		return
	}
	s.queue = append(s.queue, f)
	s.queued += len(f.data)
	s.wake()
}

// drop marks the subscriber dead (p.mu held).
func (s *Subscription) drop(reason string) {
	s.dropped = reason
	s.queue = nil
	s.queued = 0
	s.wake()
}

func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Notify signals queued frames (or the drop). Level-triggered with a
// one-slot channel: after a wakeup, drain with Next until empty.
func (s *Subscription) Notify() <-chan struct{} { return s.notify }

// Next drains the queued frames (non-blocking). lastSeq is the seq after
// the final returned frame (0 when none). After the publisher dropped the
// subscriber it returns ErrDropped — the transport must end the stream.
func (s *Subscription) Next() (frames [][]byte, lastSeq uint64, err error) {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.dropped != "" {
		return nil, 0, fmt.Errorf("%w (%s)", ErrDropped, s.dropped)
	}
	if len(s.queue) == 0 {
		return nil, 0, nil
	}
	frames = make([][]byte, len(s.queue))
	for i, f := range s.queue {
		frames[i] = f.data
	}
	lastSeq = s.queue[len(s.queue)-1].seq
	s.queue = nil
	s.queued = 0
	return frames, lastSeq, nil
}

// MarkSent records that the transport wrote everything up to seq.
func (s *Subscription) MarkSent(seq uint64) {
	if seq > s.sent.Load() {
		s.sent.Store(seq)
	}
}
