package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"kcore/internal/server/wire"
)

// handleWatch streams CoreChange events, as Server-Sent Events by default
// or as binary event frames when the request's Accept header selects
// application/x-kcore-events. Events come from the tenant's broadcast ring
// (see ring.go): each change is encoded once per framing regardless of the
// watcher count, and this handler only walks its cursor. Delivery never
// blocks the engine: a slow consumer loses events and learns about it
// through "lagged" events carrying the cumulative drop count. See the wire
// package comment for the schema.
func (s *Server) handleWatch(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &wire.Error{Code: wire.CodeInternal, Status: http.StatusInternalServerError,
			Message: "response writer does not support streaming"})
		return
	}
	stream, ok := negotiate(r.Header.Get("Accept"), wire.ContentTypeSSE, wire.ContentTypeEvents)
	if !ok {
		writeError(w, unsupportedMedia("/v1/watch streams %s or %s",
			wire.ContentTypeSSE, wire.ContentTypeEvents))
		return
	}
	binary := stream == wire.ContentTypeEvents
	q := r.URL.Query()
	minCore := 0
	if v := q.Get("min_core"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, badRequest("min_core must be a non-negative integer, got %q", v))
			return
		}
		minCore = n
	}
	buffer := s.opts.WatchBuffer
	if v := q.Get("buffer"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, badRequest("buffer must be a positive integer, got %q", v))
			return
		}
		buffer = n
	}

	cursor := ts.ring.subscribe(buffer, minCore)
	if cursor == nil {
		writeError(w, toWireError(errShuttingDown))
		return
	}
	s.watchers.Add(1)
	defer func() {
		cursor.detach()
		s.watchers.Add(-1)
	}()

	h := w.Header()
	h.Set("Content-Type", stream)
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Every write is bounded by a fresh deadline: a watcher whose TCP peer
	// stopped reading must not park this goroutine forever (it would also
	// park graceful shutdown, which awaits in-flight handlers). When the
	// deadline fires the blocked write errors and the stream ends.
	rc := http.NewResponseController(w)
	arm := func() { _ = rc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)) }
	arm()

	// Seq is read after the cursor is attached, so every change with a
	// greater sequence number is covered; changes at or before the hello seq
	// may additionally be delivered (see wire.HelloEvent). The hello echoes
	// the cursor's lag window, which the ring capacity clamps.
	out := &eventWriter{w: w, binary: binary}
	if out.hello(wire.HelloEvent{Seq: ts.t.Engine().Seq(), MinCore: minCore, Buffer: int(cursor.window)}) != nil {
		return
	}
	flusher.Flush()

	keepalive := time.NewTicker(s.opts.Keepalive)
	defer keepalive.Stop()
	var lagged uint64
	scratch := make([]ringEvent, 0, 64)
	for {
		events, dropped, wait, closed := cursor.poll(scratch)
		if closed {
			return
		}
		// One flush per polled chunk (up to cap(scratch) events), so a
		// bursty update doesn't pay one syscall per event. Dropped events
		// surface even when the stream has gone quiet (everything after the
		// overflow was dropped, so no change event is coming to piggyback on).
		if len(events) > 0 || dropped != lagged {
			arm()
			for _, ev := range events {
				if out.change(ev) != nil {
					return
				}
			}
			if dropped != lagged {
				lagged = dropped
				if out.lagged(wire.LaggedEvent{Dropped: dropped}) != nil {
					return
				}
			}
			flusher.Flush()
		}
		if wait == nil {
			continue // more events may be pending
		}
		select {
		case <-wait:
		case <-keepalive.C:
			arm()
			if out.keepalive() != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
	}
}

// eventWriter writes watch frames in the negotiated encoding. Change events
// come pre-encoded from the ring; only the per-subscriber frames (hello,
// lagged, keepalive) are encoded here.
type eventWriter struct {
	w      http.ResponseWriter
	binary bool
	buf    []byte // scratch for the per-subscriber frames
}

func (e *eventWriter) hello(h wire.HelloEvent) error {
	if e.binary {
		e.buf = wire.AppendHelloFrame(e.buf[:0], h)
		_, err := e.w.Write(e.buf)
		return err
	}
	return writeSSE(e.w, wire.EventHello, h)
}

func (e *eventWriter) change(ev ringEvent) error {
	frame := ev.frames[:ev.split]
	if e.binary {
		frame = ev.frames[ev.split:]
	}
	_, err := e.w.Write(frame)
	return err
}

func (e *eventWriter) lagged(l wire.LaggedEvent) error {
	if e.binary {
		e.buf = wire.AppendLaggedFrame(e.buf[:0], l)
		_, err := e.w.Write(e.buf)
		return err
	}
	return writeSSE(e.w, wire.EventLagged, l)
}

func (e *eventWriter) keepalive() error {
	if e.binary {
		_, err := e.w.Write([]byte{wire.FrameKeepalive})
		return err
	}
	_, err := fmt.Fprint(e.w, ": keepalive\n\n")
	return err
}

// writeSSE writes one SSE frame: "event: <name>\ndata: <json>\n\n". Used
// for the per-subscriber frames; change events stream pre-encoded from the
// broadcast ring.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
