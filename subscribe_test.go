package kcore

import (
	"sync/atomic"
	"testing"
)

func drain(ch <-chan CoreChange) []CoreChange {
	var out []CoreChange
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestSubscribeDeliversChanges(t *testing.T) {
	e := NewEngine()
	ch, cancel := e.Subscribe(WithBuffer(32))
	defer cancel()

	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	evs := drain(ch)
	if len(evs) != 2 {
		t.Fatalf("events after first edge = %v, want 2", evs)
	}
	for _, ev := range evs {
		if ev.OldCore != 0 || ev.NewCore != 1 || ev.Seq != 1 {
			t.Fatalf("bad event %+v", ev)
		}
	}

	// Batch completing a triangle: three rises to core 2, all with the
	// batch's second sequence number.
	if _, err := e.Apply(Batch{Add(1, 2), Add(0, 2)}); err != nil {
		t.Fatal(err)
	}
	evs = drain(ch)
	bySeq := map[uint64]int{}
	for _, ev := range evs {
		bySeq[ev.Seq]++
	}
	if bySeq[2] != 1 || bySeq[3] != 3 {
		t.Fatalf("events per seq = %v (events %v)", bySeq, evs)
	}

	// Removal events report the fall.
	if _, err := e.RemoveEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	evs = drain(ch)
	if len(evs) != 3 {
		t.Fatalf("removal events = %v", evs)
	}
	for _, ev := range evs {
		if ev.OldCore != 2 || ev.NewCore != 1 || ev.Seq != 4 {
			t.Fatalf("bad removal event %+v", ev)
		}
	}
}

func TestSubscribeCancelClosesChannel(t *testing.T) {
	e := NewEngine()
	ch, cancel := e.Subscribe()
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after cancel")
	}
	// Updates after cancel must not panic (send on closed channel).
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeMinCoreFilter(t *testing.T) {
	e := NewEngine()
	ch, cancel := e.Subscribe(WithMinCore(2), WithBuffer(32))
	defer cancel()
	// Rises to core 1 are filtered out.
	if _, err := e.Apply(Batch{Add(0, 1), Add(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if evs := drain(ch); len(evs) != 0 {
		t.Fatalf("filtered events leaked: %v", evs)
	}
	// The rise 1 -> 2 crosses the threshold.
	if _, err := e.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if evs := drain(ch); len(evs) != 3 {
		t.Fatalf("threshold events = %v, want 3", evs)
	}
	// The fall 2 -> 1 involves level 2 and is delivered too.
	if _, err := e.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if evs := drain(ch); len(evs) != 3 {
		t.Fatalf("falling events = %v, want 3", evs)
	}
}

func TestSubscribeSlowConsumerDropsNotBlocks(t *testing.T) {
	e := NewEngine()
	var dropped atomic.Uint64
	ch, cancel := e.Subscribe(WithBuffer(1), WithDropCounter(&dropped))
	defer cancel()
	// Six rises against a buffer of one (two for the first edge, one for
	// the second, three for the triangle closure): Apply must not block,
	// exactly one event is retained, and the counter sees the rest.
	if _, err := e.Apply(Batch{Add(0, 1), Add(1, 2), Add(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if evs := drain(ch); len(evs) != 1 {
		t.Fatalf("buffered events = %v, want exactly 1", evs)
	}
	if got := dropped.Load(); got != 5 {
		t.Fatalf("dropped = %d, want 5", got)
	}
	// The subscription keeps working after drops.
	if _, err := e.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if evs := drain(ch); len(evs) != 1 {
		t.Fatalf("post-drop events = %v, want 1", evs)
	}
}

func TestSubscribeMultiple(t *testing.T) {
	e := NewEngine()
	a, cancelA := e.Subscribe(WithBuffer(8))
	b, cancelB := e.Subscribe(WithBuffer(8))
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if len(drain(a)) != 2 || len(drain(b)) != 2 {
		t.Fatal("both subscribers should receive events")
	}
	cancelA()
	if _, err := e.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if len(drain(b)) != 1 {
		t.Fatal("surviving subscriber missed events")
	}
	cancelB()
}

// TestSubscribeEventsFollowEpoch: a subscription is an apply hook, so its
// events arrive after every hook registered before it has run and after
// the batch's epoch is published: a consumer holding an event for seq S
// reads Seq() >= S.
func TestSubscribeEventsFollowEpoch(t *testing.T) {
	e := NewEngine()
	var ch <-chan CoreChange
	buffered := -1
	removeHook := e.AddApplyHook(func(AppliedBatch) error {
		buffered = len(ch)
		return nil
	})
	ch, cancel := e.Subscribe(WithBuffer(32))
	// Six rises: two for the first edge, one for the second, three for the
	// triangle closure.
	if _, err := e.Apply(Batch{Add(0, 1), Add(1, 2), Add(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if buffered != 0 {
		t.Fatalf("earlier hook found %d of the batch's events already buffered, want 0", buffered)
	}
	if evs := drain(ch); len(evs) != 6 {
		t.Fatalf("subscriber got %v, want 6 events", evs)
	}
	removeHook()
	cancel()

	evs, cancelDrain := e.Subscribe(WithBuffer(4096))
	ahead := make(chan int)
	go func() {
		n := 0
		for ev := range evs {
			if e.Seq() < ev.Seq {
				n++
			}
		}
		ahead <- n
	}()
	for i := 0; i < 300; i++ {
		v := 10 + 4*i
		if _, err := e.Apply(Batch{Add(v, v+1), Add(v+2, v+3)}); err != nil {
			t.Fatal(err)
		}
	}
	cancelDrain()
	if n := <-ahead; n != 0 {
		t.Fatalf("%d events arrived before Seq() reached their seq", n)
	}
}
