package replicate

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/persist"
)

// PublisherOptions tunes the primary side. The zero value picks defaults.
type PublisherOptions struct {
	// HistoryBytes bounds the in-memory encoded-frame history. The history
	// is every subscriber's send window as well as the resume tier for
	// reconnecting followers: a subscriber whose next unread frame was
	// trimmed is dropped (it reconnects and resumes). The newest frame is
	// always kept, so a subscriber at the previous head can read it whatever
	// the bound. Default 4 MiB.
	HistoryBytes int
	// WALPath, when set, names the persist WAL file (persist.WALFile inside
	// the data directory); resume requests beyond the in-memory history are
	// served from it before falling back to a snapshot.
	WALPath string
}

// walResumeBytes bounds a file-served resume tail; a larger tail falls back
// to a snapshot bootstrap instead (the snapshot is smaller at that point).
const walResumeBytes = 64 << 20

// frame is one encoded WAL frame covering the engine seq range (start, seq].
type frame struct {
	start uint64
	seq   uint64
	data  []byte // immutable once published
}

// Publisher is the primary side of replication: it adds an apply hook to
// the engine (Engine.AddApplyHook) and keeps one bounded history of encoded
// frames. Every subscriber is a cursor into that history, so the hook's
// work does not depend on the subscriber count. One Publisher per engine;
// NewPublisher adds the hook, Close removes it.
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
	first    uint64        // absolute number of hist[0]; frames are numbered from 0
	wake     chan struct{} // closed by the next append or Close; nil while no reader waits
	subs     map[*Subscription]struct{}
	closed   bool

	bootstraps uint64 // snapshot bootstraps served
	resumes    uint64 // in-memory history resumes served
	walResumes uint64 // on-disk WAL resumes served
	drops      uint64 // subscribers dropped because the history outran them
}

// ErrClosed is returned by Subscribe after Close.
var ErrClosed = errors.New("replicate: publisher closed")

// ErrDropped is returned by Subscription.Next once the history trimmed the
// subscriber's next unread frame (or the publisher was closed): the stream
// must end and the follower reconnect.
var ErrDropped = errors.New("replicate: subscriber dropped")

// NewPublisher attaches a publisher to the engine's apply hooks. On an
// engine with a persist.Store, open the store first: hooks run in
// registration order, so each batch then reaches the WAL before it is
// published.
func NewPublisher(engine *kcore.Engine, opts PublisherOptions) *Publisher {
	if opts.HistoryBytes <= 0 {
		opts.HistoryBytes = 4 << 20
	}
	p := &Publisher{
		engine: engine,
		opts:   opts,
		subs:   make(map[*Subscription]struct{}),
		head:   engine.Seq(),
	}
	p.removeHook = engine.AddApplyHook(p.onApply)
	return p
}

// onApply is the engine apply hook: encode the batch as a WAL frame and
// append it to the history. It runs under the engine write lock — keep it
// allocation-light and never call back into the engine. It never fails:
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
	for p.histSize > p.opts.HistoryBytes && len(p.hist) > 1 {
		p.histSize -= len(p.hist[0].data)
		p.hist[0] = frame{}
		p.hist = p.hist[1:]
		p.first++
	}
	p.head = f.seq
	p.wakeReaders()
	return nil
}

// wakeReaders releases every Next waiting for a frame (mu held).
func (p *Publisher) wakeReaders() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

// histBase is the earliest seq resumable from memory (mu held).
func (p *Publisher) histBase() uint64 {
	if len(p.hist) > 0 {
		return p.hist[0].start
	}
	return p.head
}

// end is the absolute number of the next frame to be appended (mu held).
func (p *Publisher) end() uint64 { return p.first + uint64(len(p.hist)) }

// Bootstrap is what a new subscriber must send before the frames Next
// returns: a full snapshot (Snapshot non-nil), a backlog of encoded WAL
// frames read from the WAL file, or neither when the in-memory history
// resumes the subscriber. The bootstrap and the frames Next returns tile
// with no gap; frames at or below BacklogSeq that Next returns too are
// skipped by the follower.
type Bootstrap struct {
	Snapshot []byte
	Backlog  [][]byte
	// BacklogSeq is the seq the transport is at once the bootstrap is
	// written: the snapshot's seq, the last backlog frame's, or the resume
	// point.
	BacklogSeq uint64
}

// Subscribe registers a subscriber and computes its bootstrap. When resume
// is true the publisher tries to continue exactly at `from` — by placing
// the cursor in the in-memory history, then by reading the configured WAL
// file — and falls back to a snapshot; with resume false it always
// snapshots. The caller must Unsubscribe when the stream ends.
func (p *Publisher) Subscribe(remote string, from uint64, resume bool) (*Subscription, *Bootstrap, error) {
	sub := &Subscription{p: p, remote: remote, from: from, started: time.Now()}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, nil, ErrClosed
	}
	p.subs[sub] = struct{}{}
	if resume {
		if next, ok := p.frameAt(from); ok {
			sub.next = next
			p.resumes++
			p.mu.Unlock()
			return sub, &Bootstrap{BacklogSeq: from}, nil
		}
	}
	// Otherwise the cursor starts at the head: every frame applied from now
	// on is readable, so the bootstrap below and Next tile with no gap (the
	// overlap at the boundary is handled by the follower's skip rule).
	sub.next = p.end()
	headReg := p.head
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
	// are readable through the cursor and chain past the snapshot's seq.
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

// frameAt returns the absolute number of the history frame that continues
// exactly at seq `from` (the end of the history when from is the head), mu
// held. It fails when the history no longer reaches back to `from` or
// `from` is not a frame boundary of this lineage.
func (p *Publisher) frameAt(from uint64) (uint64, bool) {
	if from == p.head {
		return p.end(), true
	}
	i := sort.Search(len(p.hist), func(i int) bool { return p.hist[i].seq > from })
	if i == len(p.hist) || p.hist[i].start != from {
		return 0, false
	}
	return p.first + uint64(i), true
}

// walTail reads the on-disk WAL tail covering (from, upto], re-encoded as
// stream frames. It fails — sending the subscriber to the snapshot path —
// when the log does not contain a chain from exactly `from` up to `upto`
// (compacted away, torn, sealed with a deferred backlog, or mid-write), or
// when the tail exceeds walResumeBytes.
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
		if total += int64(len(data)); total > walResumeBytes {
			return fmt.Errorf("tail exceeds %d bytes", walResumeBytes)
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

// Unsubscribe removes a subscriber; idempotent.
func (p *Publisher) Unsubscribe(sub *Subscription) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.subs, sub)
}

// Close removes the engine apply hook and ends every subscriber's stream:
// Next returns ErrDropped, and reconnect attempts fail with ErrClosed.
func (p *Publisher) Close() {
	p.removeHook()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.wakeReaders()
}

// SubscriberStats describes one connected subscriber.
type SubscriberStats struct {
	Remote      string
	FromSeq     uint64 // seq the subscriber asked to resume from (0 = bootstrap)
	SentSeq     uint64 // last seq handed to the subscriber's transport
	QueuedBytes int64  // bytes of the history the subscriber has not read yet
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
		var unread int64
		for _, f := range p.hist[max(sub.next, p.first)-p.first:] {
			unread += int64(len(f.data))
		}
		st.Subscribers = append(st.Subscribers, SubscriberStats{
			Remote:      sub.remote,
			FromSeq:     sub.from,
			SentSeq:     sub.sent.Load(),
			QueuedBytes: unread,
			ConnectedMS: time.Since(sub.started).Milliseconds(),
		})
	}
	return st
}

// Subscription is one subscriber's cursor into the publisher's frame
// history. The transport goroutine reads with Next, waits on the channel
// Next returns when nothing is unread, and acknowledges transport progress
// with MarkSent.
type Subscription struct {
	p       *Publisher
	remote  string
	from    uint64
	started time.Time
	sent    atomic.Uint64

	// guarded by p.mu:
	next    uint64 // absolute number of the next unread frame
	dropped bool   // counted in drops (the cursor fell behind the history)
}

// Next returns every frame past the cursor and advances the cursor past
// them; lastSeq is the seq after the final returned frame. When no frame is
// unread it returns none and a wait channel that closes on the next
// append. Once the history has trimmed the cursor's next frame — the
// subscriber fell more than HistoryBytes behind — or the publisher closed,
// it returns ErrDropped: partial delivery would break the frame chain, so
// the transport must end the stream and the follower reconnect and resume.
func (s *Subscription) Next() (frames [][]byte, lastSeq uint64, wait <-chan struct{}, err error) {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, 0, nil, fmt.Errorf("%w (publisher closed)", ErrDropped)
	}
	if s.next < p.first {
		if !s.dropped {
			s.dropped = true
			p.drops++
		}
		return nil, 0, nil, fmt.Errorf("%w (more than %d history bytes behind)", ErrDropped, p.opts.HistoryBytes)
	}
	unread := p.hist[s.next-p.first:]
	if len(unread) == 0 {
		if p.wake == nil {
			p.wake = make(chan struct{})
		}
		return nil, 0, p.wake, nil
	}
	frames = make([][]byte, len(unread))
	for i, f := range unread {
		frames[i] = f.data
	}
	s.next = p.end()
	return frames, unread[len(unread)-1].seq, nil, nil
}

// MarkSent records that the transport wrote everything up to seq.
func (s *Subscription) MarkSent(seq uint64) {
	if seq > s.sent.Load() {
		s.sent.Store(seq)
	}
}
