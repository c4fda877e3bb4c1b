package kcore

import (
	"sync"
	"sync/atomic"
)

// Change subscriptions: push-style notification of core-number changes, so
// streaming consumers (alerting, cohort tracking) stop polling Cores().
// A subscription is a change hook (see AddChangeHook) forwarding each
// record's AppliedBatch.Changes into a channel, so events arrive after the
// batch's epoch is published (an event for seq S finds Seq() >= S) and
// after every hook registered earlier, and a panic repair's or Restore's
// diff arrives as events too. Delivery is non-blocking: a subscriber that falls
// behind its buffer loses events rather than stalling the writer. Subscribe
// and its cancel take the engine's write lock, so calling either from inside
// an apply hook or the apply probe (see SetApplyProbe) deadlocks.

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
// number. A panic repair or a Restore delivers one CoreChange per vertex
// whose core it moved, tagged with the repaired or restored sequence
// number; after a Restore to an older state that number is lower than the
// events before it.
//
// cancel unregisters the subscription and closes the channel; it is safe to
// call more than once. Callers must cancel when done — an abandoned
// subscription leaks its channel and keeps dropping events forever.
func (e *Engine) Subscribe(opts ...SubscribeOption) (<-chan CoreChange, func()) {
	cfg := subConfig{buffer: 64}
	for _, o := range opts {
		o(&cfg)
	}
	ch := make(chan CoreChange, cfg.buffer)
	remove := e.AddChangeHook(func(rec AppliedBatch) error {
		for _, ev := range rec.Changes {
			if ev.NewCore < cfg.minCore && ev.OldCore < cfg.minCore {
				continue
			}
			select {
			case ch <- ev:
			default:
				if cfg.dropped != nil {
					cfg.dropped.Add(1)
				}
			}
		}
		return nil
	})
	// Once remove returns no Apply is running the hook, so the close
	// cannot race a send.
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			remove()
			close(ch)
		})
	}
}
