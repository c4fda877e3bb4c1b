package server

import (
	"sync"
	"sync/atomic"

	"kcore"
	"kcore/internal/server/wire"
)

// The watch broadcast ring is a tenant's /v1/watch fan-out and, while a
// watch stream is open, its engine's change hook (see
// kcore.Engine.AddChangeHook): the first stream adds the hook and the last
// removes it, so an unwatched tenant's batches build no change records.
// Under the engine's write lock the hook encodes each batch's changes once
// per framing (SSE and binary event frames) into one buffer, publishes them
// into the ring's slots and wakes waiting readers once. Each watch handler
// carries only a cursor and its min_core filter, so 10k watchers cost one
// encoding per event, not 10k. The engine never blocks on a watcher: a
// cursor that falls more than its lag window behind the head skips the
// overwritten events and reports them as "lagged".

// ringEvent is one broadcast slot. The bytes are immutable once written —
// an overwriting append replaces the slot's slice header, never the bytes —
// so a copied-out ringEvent stays valid without holding the ring lock.
type ringEvent struct {
	oldCore, newCore int    // for per-subscriber min_core filtering
	frames           []byte // the SSE frame, then the binary frame
	split            int    // length of the SSE frame
}

// broadcastRing is a fixed-capacity single-writer multi-reader event ring
// fed by one engine's change hook.
type broadcastRing struct {
	eng  *kcore.Engine
	size uint64

	// attach serializes adding and removing the change hook. Lock order:
	// attach, then the engine's write lock, then mu; the hook runs under
	// the engine's write lock and takes only mu.
	attach   sync.Mutex
	remove   func() // removes the change hook; nil while no stream is open
	watchers atomic.Int64

	mu     sync.Mutex
	buf    []ringEvent   // made by the first stream, dropped by the last
	head   uint64        // next slot to write; valid slots are [head-min(head,size), head)
	wake   chan struct{} // made by a waiting reader, closed by the next append or close
	closed bool          // written under attach and mu

	// encoded counts encoded events, each once into both framings; tests
	// and the fan-out benchmark check that it stays independent of the
	// subscriber count.
	encoded atomic.Uint64
	// ends holds each encoded event's SSE and binary end offsets; only the
	// hook touches it, under the engine's write lock.
	ends []int
}

func newBroadcastRing(eng *kcore.Engine, size int) *broadcastRing {
	return &broadcastRing{eng: eng, size: uint64(size)}
}

// onChanges is the change hook: it encodes the record's changes and
// publishes them. Only the newest size changes of a record can ever be
// read, so older ones are counted past without encoding.
func (r *broadcastRing) onChanges(rec kcore.AppliedBatch) error {
	changes := rec.Changes
	skipped := max(len(changes)-int(r.size), 0)
	changes = changes[skipped:]
	if len(changes) == 0 {
		return nil
	}
	// ~80 bytes of SSE and ~10 of binary frame per event typically.
	data := make([]byte, 0, 96*len(changes))
	ends := r.ends[:0]
	for _, c := range changes {
		ce := wire.ChangeEvent{Vertex: c.Vertex, OldCore: c.OldCore, NewCore: c.NewCore, Seq: c.Seq}
		data = wire.AppendChangeSSE(data, ce)
		ends = append(ends, len(data))
		data = wire.AppendChangeFrame(data, ce)
		ends = append(ends, len(data))
	}
	r.ends = ends
	r.encoded.Add(uint64(len(changes)))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.head += uint64(skipped)
	start := 0
	for i, c := range changes {
		mid, end := ends[2*i], ends[2*i+1]
		r.buf[r.head%r.size] = ringEvent{oldCore: c.OldCore, newCore: c.NewCore,
			frames: data[start:end:end], split: mid - start}
		r.head++
		start = end
	}
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
	return nil
}

// close ends the ring: the change hook is removed and every blocked
// subscriber wakes up to drain what is left and observe closed. Idempotent.
func (r *broadcastRing) close() {
	r.attach.Lock()
	defer r.attach.Unlock()
	if r.remove != nil {
		r.remove()
		r.remove = nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

// ringCursor is one subscriber's read position.
type ringCursor struct {
	r       *broadcastRing
	next    uint64 // next absolute event index to read
	window  uint64 // lag window: events older than head-window are lost
	minCore int
	skipped uint64 // events overwritten before this cursor read them
}

// subscribe attaches a cursor at the current head, adding the change hook
// if no other cursor is attached, and returns nil once the ring is closed.
// window is the subscriber's requested buffer, clamped to the ring
// capacity; minCore mirrors kcore.WithMinCore (deliver when
// max(OldCore, NewCore) >= k). The hook stays until every cursor is
// detached or the ring is closed.
func (r *broadcastRing) subscribe(window int, minCore int) *ringCursor {
	w := min(uint64(max(window, 1)), r.size)
	r.attach.Lock()
	defer r.attach.Unlock()
	if r.closed {
		return nil
	}
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]ringEvent, r.size)
	}
	c := &ringCursor{r: r, next: r.head, window: w, minCore: minCore}
	r.mu.Unlock()
	if r.remove == nil {
		r.remove = r.eng.AddChangeHook(r.onChanges)
	}
	r.watchers.Add(1)
	return c
}

// detach ends the cursor; the last cursor to leave removes the change hook
// and drops the ring's slots.
func (c *ringCursor) detach() {
	r := c.r
	r.attach.Lock()
	defer r.attach.Unlock()
	if r.watchers.Add(-1) > 0 {
		return
	}
	if r.remove != nil {
		r.remove()
		r.remove = nil
	}
	r.mu.Lock()
	r.buf = nil
	r.mu.Unlock()
}

// poll reads the next batch of events into dst[:0] (bounded by cap(dst)),
// applying the cursor's min_core filter. When no event is pending it
// returns a wait channel that closes on the next append; when the ring is
// closed and drained it reports closed. dropped is the cursor's cumulative
// count of events overwritten before it read them.
func (c *ringCursor) poll(dst []ringEvent) (events []ringEvent, dropped uint64, wait <-chan struct{}, closed bool) {
	r := c.r
	events = dst[:0]
	r.mu.Lock()
	defer r.mu.Unlock()
	if oldest := r.head - min(r.head, c.window); c.next < oldest {
		c.skipped += oldest - c.next
		c.next = oldest
	}
	for c.next < r.head && len(events) < cap(events) {
		ev := r.buf[c.next%r.size]
		c.next++
		if ev.newCore < c.minCore && ev.oldCore < c.minCore {
			continue
		}
		events = append(events, ev)
	}
	if len(events) == 0 && c.next == r.head {
		if r.closed {
			return nil, 0, nil, true
		}
		if r.wake == nil {
			r.wake = make(chan struct{})
		}
		wait = r.wake
	}
	return events, c.skipped, wait, false
}
