package kcore

import "sync/atomic"

// Change subscriptions: push-style notification of core-number changes, so
// streaming consumers (alerting, cohort tracking) stop polling Cores().
// Events are emitted synchronously while the engine's write lock is held;
// delivery into each subscriber channel is non-blocking — a subscriber that
// falls behind its buffer loses events rather than stalling the writer.

// CoreChange is one vertex's core-number transition caused by one update.
type CoreChange struct {
	// Vertex is the affected vertex.
	Vertex int
	// OldCore and NewCore are the core numbers before and after the update.
	// For incrementally maintained updates they differ by exactly 1; a
	// batch the engine applied by wholesale recomputation (see
	// BatchInfo.Recomputed) instead delivers one event per net-changed
	// vertex, whose cores may differ by more than 1 in either direction.
	OldCore int
	NewCore int
	// Seq is the engine update sequence number of the update that caused
	// the change (see Engine.Seq). All changes of one update share one Seq;
	// recomputed batches tag every event with the batch's final Seq.
	Seq uint64
}

type subscriber struct {
	ch      chan CoreChange
	minCore int
	dropped *atomic.Uint64
}

type subConfig struct {
	buffer  int
	minCore int
	dropped *atomic.Uint64
}

// SubscribeOption configures a subscription.
type SubscribeOption func(*subConfig)

// WithBuffer sets the subscription channel's buffer size (default 64,
// minimum 1). When the buffer is full, further events are dropped for this
// subscriber until it drains.
func WithBuffer(n int) SubscribeOption {
	return func(c *subConfig) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// WithMinCore delivers only changes involving core level k or above: events
// with max(OldCore, NewCore) >= k. Useful for threshold alerting — both the
// crossing above k and the fall back below it are delivered.
func WithMinCore(k int) SubscribeOption {
	return func(c *subConfig) { c.minCore = k }
}

// WithDropCounter makes the subscription count events it dropped because
// the buffer was full into d (incremented atomically, safe to read at any
// time). Without it, drops are silent.
func WithDropCounter(d *atomic.Uint64) SubscribeOption {
	return func(c *subConfig) { c.dropped = d }
}

// Subscribe registers a core-change listener and returns its event channel
// plus a cancel function. Every applied update delivers one CoreChange per
// affected vertex, in settlement order, tagged with the update's sequence
// number.
//
// cancel unregisters the subscription and closes the channel; it is safe to
// call more than once. Callers must cancel when done — an abandoned
// subscription leaks its channel and keeps dropping events forever.
func (e *Engine) Subscribe(opts ...SubscribeOption) (<-chan CoreChange, func()) {
	cfg := subConfig{buffer: 64}
	for _, o := range opts {
		o(&cfg)
	}
	s := &subscriber{
		ch:      make(chan CoreChange, cfg.buffer),
		minCore: cfg.minCore,
		dropped: cfg.dropped,
	}
	e.subMu.Lock()
	if e.subs == nil {
		e.subs = make(map[uint64]*subscriber)
	}
	e.nextSubID++
	id := e.nextSubID
	e.subs[id] = s
	e.subMu.Unlock()
	e.subCount.Add(1)
	cancel := func() {
		e.subMu.Lock()
		if _, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(s.ch)
			e.subCount.Add(-1)
		}
		e.subMu.Unlock()
	}
	return s.ch, cancel
}

// notify fans one update's core changes out to all subscribers. The caller
// holds the engine write lock; op tells the direction every change took
// (+1 for insertions, -1 for removals).
func (e *Engine) notify(op Op, changed []int) {
	if len(changed) == 0 || e.subCount.Load() == 0 {
		return
	}
	delta := 1
	if op == OpRemove {
		delta = -1
	}
	e.subMu.Lock()
	defer e.subMu.Unlock()
	for _, v := range changed {
		newCore := e.m.Core(v)
		e.deliver(CoreChange{Vertex: v, OldCore: newCore - delta, NewCore: newCore, Seq: e.seq})
	}
}

// notifyDiff fans out the net core changes of a recomputed batch (see
// BatchInfo.Recomputed): one event per changed vertex, in ascending vertex
// order, all tagged with the batch's final sequence number. The caller
// holds the engine write lock; changed lists the vertices whose core
// numbers differ from oldCores (implicitly 0 beyond its length).
func (e *Engine) notifyDiff(changed []int, oldCores []int) {
	if len(changed) == 0 || e.subCount.Load() == 0 {
		return
	}
	e.subMu.Lock()
	defer e.subMu.Unlock()
	for _, v := range changed {
		old := 0
		if v < len(oldCores) {
			old = oldCores[v]
		}
		e.deliver(CoreChange{Vertex: v, OldCore: old, NewCore: e.m.Core(v), Seq: e.seq})
	}
}

// deliver fans one event out to all subscribers, applying each one's
// min-core filter and non-blocking drop policy. The caller holds subMu.
func (e *Engine) deliver(ev CoreChange) {
	for _, s := range e.subs {
		if ev.NewCore < s.minCore && ev.OldCore < s.minCore {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			if s.dropped != nil {
				s.dropped.Add(1)
			}
		}
	}
}
