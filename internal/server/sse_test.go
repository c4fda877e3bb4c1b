package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"kcore"
	"kcore/internal/server/wire"
)

func TestWatchDeliversChanges(t *testing.T) {
	e := kcore.NewEngine()
	_, c := newTestServer(t, e, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	events, err := c.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	ev := <-events
	if ev.Type != wire.EventHello || ev.Hello == nil {
		t.Fatalf("first event = %+v, want hello", ev)
	}
	if ev.Hello.Buffer != 256 || ev.Hello.MinCore != 0 {
		t.Fatalf("hello = %+v, want default buffer 256, min_core 0", ev.Hello)
	}

	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}}); err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	// The isolated edge lifts both endpoints 0 -> 1.
	got := map[int]wire.ChangeEvent{}
	for len(got) < 2 {
		select {
		case ev := <-events:
			if ev.Type != wire.EventChange {
				t.Fatalf("unexpected event %+v", ev)
			}
			got[ev.Change.Vertex] = *ev.Change
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d/2 change events", len(got))
		}
	}
	for _, v := range []int{0, 1} {
		ch, ok := got[v]
		if !ok || ch.OldCore != 0 || ch.NewCore != 1 || ch.Seq != 1 {
			t.Fatalf("change for vertex %d = %+v, want 0->1 at seq 1", v, got[v])
		}
	}
}

// TestWatchHelloReportsClampedBuffer: the hello echoes the lag window in
// effect, which the ring capacity clamps, whether the buffer comes from
// the server default or from ?buffer=.
func TestWatchHelloReportsClampedBuffer(t *testing.T) {
	e := kcore.NewEngine()
	_, c := newTestServer(t, e, Options{WatchRing: 64})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct{ request, want int }{
		{0, 64}, // the default 256, clamped
		{10, 10},
		{5000, 64},
	} {
		events, err := c.Watch(ctx, WatchOptions{Buffer: tc.request})
		if err != nil {
			t.Fatalf("Watch(buffer=%d): %v", tc.request, err)
		}
		ev := <-events
		if ev.Type != wire.EventHello || ev.Hello == nil || ev.Hello.Buffer != tc.want {
			t.Fatalf("buffer=%d: first event %q carries hello %+v, want buffer %d",
				tc.request, ev.Type, ev.Hello, tc.want)
		}
	}
}

func TestWatchMinCoreFilter(t *testing.T) {
	e := kcore.NewEngine()
	_, c := newTestServer(t, e, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	events, err := c.Watch(ctx, WatchOptions{MinCore: 2})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if ev := <-events; ev.Type != wire.EventHello || ev.Hello.MinCore != 2 {
		t.Fatalf("hello = %+v, want min_core 2", ev)
	}
	// Path edges only reach core 1 (filtered); closing the triangle lifts
	// all three vertices to 2 (delivered).
	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	seen := map[int]bool{}
	for len(seen) < 3 {
		select {
		case ev := <-events:
			if ev.Type != wire.EventChange {
				t.Fatalf("unexpected event %+v", ev)
			}
			if ev.Change.NewCore < 2 && ev.Change.OldCore < 2 {
				t.Fatalf("filtered event leaked: %+v", ev.Change)
			}
			seen[ev.Change.Vertex] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out with %d/3 filtered events", len(seen))
		}
	}
}

// TestWatchCancelWithUnreadEvents: cancelling the watch context while the
// consumer has stopped reading must still end the stream — the parser
// goroutine may be blocked sending into the event channel and has to
// observe the cancellation (regression test for a parser goroutine leak).
func TestWatchCancelWithUnreadEvents(t *testing.T) {
	e := kcore.NewEngine()
	_, c := newTestServer(t, e, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	events, err := c.Watch(ctx, WatchOptions{Buffer: 4096})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if ev := <-events; ev.Type != wire.EventHello {
		t.Fatalf("first event = %+v, want hello", ev)
	}
	// Generate far more events than the client channel buffers (16) while
	// reading none of them, so the parser is parked in its send.
	var batch kcore.Batch
	for i := 0; i < 200; i++ {
		batch = append(batch, kcore.Add(2*i, 2*i+1))
	}
	if _, err := e.Apply(batch); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	waitFor(t, func() bool { return len(events) == cap(events) })
	cancel()
	// The channel must close (after at most its buffered backlog) even
	// though nobody drained it while cancel fired.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, open := <-events:
			if !open {
				return
			}
		case <-deadline:
			t.Fatal("watch channel never closed after cancel with an unread backlog")
		}
	}
}

// TestWatchSlowConsumerLags is the drop-on-full contract end to end: a
// consumer that stops reading its TCP stream while the engine keeps
// writing loses events instead of stalling the engine, and — once it
// resumes — receives a "lagged" event carrying the drop count.
func TestWatchSlowConsumerLags(t *testing.T) {
	e := kcore.NewEngine()
	s := New(e, Options{Keepalive: 50 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	// Raw TCP client so the test controls exactly when bytes are read:
	// request the smallest possible subscription buffer and then do not
	// read a single byte while the engine is updated.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// HTTP/1.0 keeps the response unchunked: the stream is raw SSE lines.
	fmt.Fprintf(conn, "GET /v1/watch?buffer=1 HTTP/1.0\r\nHost: %s\r\nAccept: text/event-stream\r\n\r\n",
		l.Addr().String())

	// Wait for the subscription to exist before writing, otherwise the
	// updates race the watch registration and nothing is delivered at all.
	waitFor(t, func() bool { return s.Watchers() == 1 })

	// Generate far more event bytes than the kernel socket buffers can
	// absorb: each fresh isolated edge yields two 0->1 change events.
	// With the consumer not reading, the SSE writer blocks on TCP, the
	// 1-slot subscription buffer fills, and the engine's non-blocking
	// delivery drops the rest. If delivery could block, this loop — run
	// with no reader draining the stream — would deadlock the engine.
	const edges = 40000
	start := time.Now()
	var batch kcore.Batch
	for i := 0; i < edges; i++ {
		batch = append(batch, kcore.Add(2*i, 2*i+1))
		if len(batch) == 500 {
			if _, err := e.Apply(batch); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			batch = batch[:0]
		}
	}
	writeDur := time.Since(start)
	t.Logf("applied %d edges in %v with an unread watcher", edges, writeDur)

	// Resume reading: drain the stream and find the lagged event.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("SetReadDeadline: %v", err)
	}
	r := bufio.NewReader(conn)
	// Skip HTTP response headers.
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response headers: %v", err)
		}
		if line == "\r\n" || line == "\n" {
			break
		}
	}
	var laggedLine string
	var changes int
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d change events without a lagged event: %v", changes, err)
		}
		line = strings.TrimSpace(line)
		if line == "event: "+wire.EventChange {
			changes++
		}
		if line == "event: "+wire.EventLagged {
			data, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reading lagged data: %v", err)
			}
			laggedLine = strings.TrimSpace(data)
			break
		}
	}
	if !strings.HasPrefix(laggedLine, "data: ") || !strings.Contains(laggedLine, `"dropped":`) {
		t.Fatalf("lagged payload = %q, want a dropped count", laggedLine)
	}
	if strings.Contains(laggedLine, `"dropped":0`) {
		t.Fatalf("lagged payload reports zero drops: %q", laggedLine)
	}
	// The watcher observed only a prefix of the 2*edges events; with a
	// 1-slot buffer the overwhelming majority must have been dropped.
	if changes >= 2*edges {
		t.Fatalf("watcher received all %d events; expected drops under a stalled consumer", changes)
	}
	t.Logf("watcher saw %d/%d change events before lagged: %s", changes, 2*edges, laggedLine)
}
