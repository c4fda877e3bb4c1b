package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"kcore/internal/persist"
	"kcore/internal/replicate"
	"kcore/internal/server/wire"
)

// handleReplicate serves the binary replication stream (GET /v1/replicate):
// a KCOREREP bootstrap section (snapshot, or empty on a granted resume)
// followed by an endless KCOREWAL stream of applied batches. A follower
// resuming after a reconnect passes ?from=<seq>; the bare presence of the
// parameter is the resume request (from=0 is a valid resume point on an
// empty primary, distinct from a fresh bootstrap).
//
// The stream is one-way. Errors detected before the first byte get the JSON
// error envelope; after that the only signal is closing the connection —
// the follower treats EOF as a reconnect cue and malformed bytes as a gap.
func (s *Server) handleReplicate(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	pub := ts.pub
	if pub == nil {
		writeError(w, &wire.Error{
			Code: wire.CodeNoReplication, Status: http.StatusConflict,
			Message: "server does not replicate; this kcore-serve runs without a publisher",
		})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &wire.Error{Code: wire.CodeInternal, Status: http.StatusInternalServerError,
			Message: "response writer does not support streaming"})
		return
	}
	q := r.URL.Query()
	var from uint64
	resume := q.Has("from")
	if resume {
		n, err := strconv.ParseUint(q.Get("from"), 10, 64)
		if err != nil {
			writeError(w, badRequest("from must be a non-negative integer, got %q", q.Get("from")))
			return
		}
		from = n
	}

	sub, boot, err := pub.Subscribe(r.RemoteAddr, from, resume)
	if err != nil {
		if errors.Is(err, replicate.ErrClosed) {
			writeError(w, toWireError(errShuttingDown))
			return
		}
		writeError(w, &wire.Error{Code: wire.CodeInternal, Status: http.StatusInternalServerError,
			Message: "replication subscribe failed: " + err.Error()})
		return
	}
	defer pub.Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Per-write deadlines, same rationale as the watch stream: a follower
	// whose TCP peer stopped reading must not park this handler (and with
	// it graceful shutdown) forever.
	rc := http.NewResponseController(w)
	arm := func() { _ = rc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)) }
	arm()

	// Bootstrap: KCOREREP header (+snapshot unless resuming), then the
	// KCOREWAL header the live frames extend, then any backlog frames read
	// from the WAL file between the resume point and registration.
	head := replicate.AppendBootstrap(nil, boot.Snapshot)
	head = persist.AppendWALHeader(head)
	if _, err := w.Write(head); err != nil {
		return
	}
	for _, f := range boot.Backlog {
		if _, err := w.Write(f); err != nil {
			return
		}
	}
	sub.MarkSent(boot.BacklogSeq)
	flusher.Flush()

	for {
		frames, lastSeq, wait, err := sub.Next()
		if err != nil {
			// Dropped (the history outran this follower) or publisher
			// close. Nothing can be written mid-stream; the close is the
			// signal.
			return
		}
		if len(frames) == 0 {
			select {
			case <-wait:
				continue
			case <-r.Context().Done():
				return
			case <-s.stop:
				return
			}
		}
		arm()
		for _, f := range frames {
			if _, err := w.Write(f); err != nil {
				return
			}
		}
		sub.MarkSent(lastSeq)
		flusher.Flush()
	}
}
