package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"kcore"
	"kcore/internal/persist"
	"kcore/internal/server/wire"
)

// maxBodyBytes bounds POST bodies defensively; the per-request update count
// is separately limited by Options.MaxBatch.
const maxBodyBytes = 16 << 20

// requestMediaType extracts a request's Content-Type media type (parameters
// stripped, lowercased). An absent header defaults to JSON; an unparseable
// one is returned verbatim so the 415 message can name it.
func requestMediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return wire.ContentTypeJSON
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return strings.ToLower(strings.TrimSpace(ct))
	}
	return mt
}

// negotiate picks the first offered media type the Accept header admits.
// An absent Accept admits everything (the first offer — the server's
// preferred encoding — wins); q-values are ignored, so among admitted
// offers the server's preference order decides.
func negotiate(accept string, offers ...string) (string, bool) {
	if strings.TrimSpace(accept) == "" {
		return offers[0], true
	}
	var accepted []string
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		accepted = append(accepted, mt)
	}
	for _, offer := range offers {
		for _, a := range accepted {
			if a == offer || a == "*/*" ||
				(strings.HasSuffix(a, "/*") && strings.HasPrefix(offer, a[:len(a)-1])) {
				return offer, true
			}
		}
	}
	return "", false
}

// unsupportedMedia builds the stable 415 wire error.
func unsupportedMedia(format string, args ...any) *wire.Error {
	return &wire.Error{Code: wire.CodeUnsupportedMedia, Status: http.StatusUnsupportedMediaType,
		Message: fmt.Sprintf(format, args...)}
}

// writeJSON serializes one response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode failures past WriteHeader mean a dead client; nothing to do.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError serializes the structured error envelope with its HTTP
// status. Backpressure rejections (429 overloaded, 503 degraded or
// shutting down) carry a Retry-After header so well-behaved clients pace
// their retries instead of hammering.
func writeError(w http.ResponseWriter, e *wire.Error) {
	if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, e.Status, wire.ErrorResponse{Error: e})
}

// badRequest builds a 400 wire error.
func badRequest(format string, args ...any) *wire.Error {
	return &wire.Error{Code: wire.CodeBadRequest, Status: http.StatusBadRequest,
		Message: fmt.Sprintf(format, args...)}
}

// readOnlyError builds the stable 403 for mutations on a read-only server;
// on a follower the message names the primary to send writes to.
func (s *Server) readOnlyError() *wire.Error {
	msg := "server is read-only"
	if f := s.opts.Follower; f != nil {
		msg = fmt.Sprintf("server is a replication follower; send writes to the primary at %s", f.Primary())
	}
	return &wire.Error{Code: wire.CodeReadOnly, Status: http.StatusForbidden, Message: msg}
}

// handleNotFound answers unknown paths with the JSON error envelope.
func handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, &wire.Error{Code: wire.CodeNotFound, Status: http.StatusNotFound,
		Message: fmt.Sprintf("no such endpoint %s", r.URL.Path)})
}

// toWireError maps an engine or ingest error onto the wire protocol:
// kcore's sentinel causes become stable error codes, a *kcore.BatchError
// additionally carries the offending batch position and update.
func toWireError(err error) *wire.Error {
	we := &wire.Error{Code: wire.CodeInternal, Status: http.StatusInternalServerError,
		Message: err.Error()}
	switch {
	case errors.Is(err, errShuttingDown):
		we.Code, we.Status = wire.CodeShuttingDown, http.StatusServiceUnavailable
	case errors.Is(err, errOverloaded):
		we.Code, we.Status = wire.CodeOverloaded, http.StatusTooManyRequests
	case errors.Is(err, kcore.ErrSelfLoop):
		we.Code, we.Status = wire.CodeSelfLoop, http.StatusUnprocessableEntity
	case errors.Is(err, kcore.ErrVertexRange):
		we.Code, we.Status = wire.CodeVertexRange, http.StatusUnprocessableEntity
	case errors.Is(err, kcore.ErrDuplicateEdge):
		we.Code, we.Status = wire.CodeDuplicateEdge, http.StatusConflict
	case errors.Is(err, kcore.ErrMissingEdge):
		we.Code, we.Status = wire.CodeMissingEdge, http.StatusConflict
	}
	var he *kcore.HookError
	if errors.As(err, &he) {
		// The batch applied in memory but durability failed: a distinct code
		// so clients know NOT to retry (a retry would double-apply).
		we.Code, we.Status = wire.CodePersistenceFailed, http.StatusInternalServerError
		we.Message = "batch applied but not persisted: " + he.Err.Error()
		return we
	}
	var be *kcore.BatchError
	if errors.As(err, &be) {
		idx := be.Index
		we.Index = &idx
		we.Update = &wire.Update{Op: be.Update.Op.String(), U: be.Update.U, V: be.Update.V}
		we.Message = be.Err.Error()
	}
	return we
}

// toBatch converts wire updates to an engine batch, rejecting unknown ops.
func toBatch(updates []wire.Update) (kcore.Batch, *wire.Error) {
	batch := make(kcore.Batch, len(updates))
	for i, u := range updates {
		switch u.Op {
		case wire.OpAdd:
			batch[i] = kcore.Add(u.U, u.V)
		case wire.OpRemove:
			batch[i] = kcore.Remove(u.U, u.V)
		default:
			idx := i
			uc := u
			return nil, &wire.Error{
				Code: wire.CodeBadRequest, Status: http.StatusBadRequest,
				Message: fmt.Sprintf("unknown op %q (want %q or %q)", u.Op, wire.OpAdd, wire.OpRemove),
				Index:   &idx, Update: &uc,
			}
		}
	}
	return batch, nil
}

// degradedError builds the stable 503 for writes on a degraded server.
// Unlike persistence_failed, the rejected write never applied: retrying
// (after Retry-After) is safe.
func degradedError(cause string) *wire.Error {
	return &wire.Error{
		Code: wire.CodeDegraded, Status: http.StatusServiceUnavailable,
		Message: "server is degraded (read-only) while its durability layer heals: " + cause,
	}
}

// batchScratch is the pooled per-request state of the binary ingest path:
// the body read buffer, the decoded update scratch, and the response frame
// buffer. Safe to recycle once the handler returns — coalescer.submit
// blocks until its flush completes, so nothing retains the update slice.
type batchScratch struct {
	body    []byte
	updates []kcore.Update
	ack     []byte
}

var batchPool = sync.Pool{New: func() any {
	return &batchScratch{body: make([]byte, 0, 64<<10)}
}}

// readAllInto reads r to EOF into buf[:0], growing only past buf's existing
// capacity — the zero-steady-state-alloc read of the binary ingest path.
func readAllInto(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleBatch runs after the route wrapper's gating (read-only, draining,
// degraded — see routes.go), so the body here is pure decode + submit.
func (s *Server) handleBatch(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	ct := requestMediaType(r)
	if ct != wire.ContentTypeJSON && ct != wire.ContentTypeBatch {
		writeError(w, unsupportedMedia("/v1/batch accepts %s or %s request bodies, got %q",
			wire.ContentTypeJSON, wire.ContentTypeBatch, ct))
		return
	}
	// The response encoding is negotiated BEFORE the batch is decoded or
	// applied: an Accept header admitting neither encoding must fail the
	// request while it is still side-effect free.
	respType, ok := negotiate(r.Header.Get("Accept"), wire.ContentTypeJSON, wire.ContentTypeBatch)
	if !ok {
		writeError(w, unsupportedMedia("/v1/batch responds with %s or %s, none admitted by Accept %q",
			wire.ContentTypeJSON, wire.ContentTypeBatch, r.Header.Get("Accept")))
		return
	}

	// Per-request read deadline: a client trickling its body cannot park
	// this handler past ReadTimeout (server-wide ReadTimeout would kill
	// SSE streams instead; see Serve). Cleared again after the decode so
	// the connection's later keep-alive requests are unaffected.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)

	var batch kcore.Batch
	var sc *batchScratch
	if ct == wire.ContentTypeBatch {
		// Binary fast path: read into pooled scratch, decode with the persist
		// varint codec straight into a pooled update slice, and hand that to
		// the coalescer — no JSON, no per-request allocation at steady state.
		sc = batchPool.Get().(*batchScratch)
		defer batchPool.Put(sc)
		var err error
		sc.body, err = readAllInto(body, sc.body)
		_ = rc.SetReadDeadline(time.Time{})
		if err != nil {
			writeError(w, bodyReadError(err))
			return
		}
		updates, err := persist.DecodeBatchFrame(sc.body, sc.updates)
		sc.updates = updates[:0]
		if err != nil {
			writeError(w, badRequest("invalid binary batch frame: %v", err))
			return
		}
		sc.updates = updates
		if werr := checkBatchSize(len(updates), s.opts.MaxBatch); werr != nil {
			writeError(w, werr)
			return
		}
		batch = kcore.Batch(updates)
	} else {
		var req wire.BatchRequest
		err := json.NewDecoder(body).Decode(&req)
		_ = rc.SetReadDeadline(time.Time{})
		if err != nil {
			writeError(w, bodyReadError(err))
			return
		}
		if werr := checkBatchSize(len(req.Updates), s.opts.MaxBatch); werr != nil {
			writeError(w, werr)
			return
		}
		var werr *wire.Error
		if batch, werr = toBatch(req.Updates); werr != nil {
			writeError(w, werr)
			return
		}
	}
	resp, err := ts.co.submit(batch)
	if err != nil {
		writeError(w, toWireError(err))
		return
	}
	if respType == wire.ContentTypeBatch {
		var buf []byte
		if sc != nil {
			buf = sc.ack[:0]
		}
		buf = wire.AppendBatchAck(buf, resp)
		if sc != nil {
			sc.ack = buf[:0]
		}
		w.Header().Set("Content-Type", wire.ContentTypeBatch)
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkBatchSize enforces the shape limits both batch encodings share.
func checkBatchSize(n, maxBatch int) *wire.Error {
	if n == 0 {
		return badRequest("updates must be non-empty")
	}
	if n > maxBatch {
		return &wire.Error{
			Code: wire.CodeBatchTooLarge, Status: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("batch has %d updates, limit is %d; split the batch", n, maxBatch),
		}
	}
	return nil
}

// bodyReadError maps a mutation-body read/decode failure onto the wire
// protocol: an over-limit body is the stable 413, anything else a 400.
func bodyReadError(err error) *wire.Error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &wire.Error{
			Code: wire.CodeBatchTooLarge, Status: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes; split the batch", tooLarge.Limit),
		}
	}
	return badRequest("invalid batch request body: %v", err)
}

func (s *Server) handleCore(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	v, err := strconv.Atoi(r.PathValue("v"))
	if err != nil || v < 0 {
		writeError(w, badRequest("vertex must be a non-negative integer, got %q", r.PathValue("v")))
		return
	}
	// CoreSeq, not View: the point query must not pay an O(n) snapshot.
	core, seq := ts.t.Engine().CoreSeq(v)
	writeJSON(w, http.StatusOK, wire.CoreResponse{Vertex: v, Core: core, Seq: seq})
}

func (s *Server) handleKCore(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	kstr := r.URL.Query().Get("k")
	if kstr == "" {
		writeError(w, badRequest("missing required query parameter k"))
		return
	}
	k, err := strconv.Atoi(kstr)
	if err != nil || k < 0 {
		writeError(w, badRequest("k must be a non-negative integer, got %q", kstr))
		return
	}
	view := ts.t.Engine().View()
	vs := view.KCore(k)
	if vs == nil {
		vs = []int{} // an empty core serializes as [], not null
	}
	writeJSON(w, http.StatusOK, wire.KCoreResponse{K: k, Count: len(vs), Vertices: vs, Seq: view.Seq()})
}

// handleCores serves the full core-number dump, binary (the server's
// preferred encoding) or JSON by Accept negotiation.
func (s *Server) handleCores(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	typ, ok := negotiate(r.Header.Get("Accept"), wire.ContentTypeCores, wire.ContentTypeJSON)
	if !ok {
		writeError(w, unsupportedMedia("/v1/cores responds with %s or %s, none admitted by Accept %q",
			wire.ContentTypeCores, wire.ContentTypeJSON, r.Header.Get("Accept")))
		return
	}
	view := ts.t.Engine().View()
	cores := view.Cores()
	if typ == wire.ContentTypeJSON {
		if cores == nil {
			cores = []int{} // an empty graph serializes as [], not null
		}
		writeJSON(w, http.StatusOK, wire.CoresResponse{Cores: cores, Seq: view.Seq()})
		return
	}
	buf := wire.AppendCoresDump(nil, view.Seq(), cores)
	w.Header().Set("Content-Type", wire.ContentTypeCores)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// handleSnapshotExport streams a KCORSNAP image of the current engine state
// (Engine.Index, one read-lock capture), so followers and tools can
// bootstrap without JSON — and without requiring the server to persist.
func (s *Server) handleSnapshotExport(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	if _, ok := negotiate(r.Header.Get("Accept"), wire.ContentTypeSnapshot); !ok {
		writeError(w, unsupportedMedia("/v1/snapshot/export responds with %s, not admitted by Accept %q",
			wire.ContentTypeSnapshot, r.Header.Get("Accept")))
		return
	}
	st := ts.t.Engine().Index()
	data, err := persist.EncodeSnapshot(st)
	if err != nil {
		writeError(w, &wire.Error{Code: wire.CodeInternal, Status: http.StatusInternalServerError,
			Message: fmt.Sprintf("snapshot encode failed: %v", err)})
		return
	}
	w.Header().Set("Content-Type", wire.ContentTypeSnapshot)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Kcore-Seq", strconv.FormatUint(st.Seq, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleStats(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	// Counts, not View: four scalars don't justify an O(n) snapshot —
	// /v1/stats is the resync signal for lagged watchers, so it gets hit.
	eng := ts.t.Engine()
	vertices, edges, degeneracy, seq := eng.Counts()
	ex := eng.ExecStats()
	resp := wire.StatsResponse{
		Tenant:     ts.t.Name(),
		Vertices:   vertices,
		Edges:      edges,
		Degeneracy: degeneracy,
		Seq:        seq,
		Algorithm:  "order-based", // the engine's one maintainer; the field stays for wire clients
		Watchers:   int(ts.ring.watchers.Load()),
		Exec: wire.ExecStats{
			Sequential: ex.Sequential,
			Recomputed: ex.Recomputed,
			Panics:     ex.Panics,
		},
		Ingest: ts.co.stats.wire(),
	}
	if st := ts.t.Store(); st != nil {
		ps := st.Stats()
		resp.Persist = &wire.PersistStats{
			SnapshotSeq:      ps.SnapshotSeq,
			SnapshotBytes:    ps.SnapshotBytes,
			WALRecords:       ps.WALRecords,
			WALBytes:         ps.WALBytes,
			Appends:          ps.Appends,
			AppendRetrySaves: ps.AppendRetrySaves,
			Syncs:            ps.Syncs,
			Compactions:      ps.Compactions,
			CompactErrors:    ps.CompactErrors,
			SyncErrors:       ps.SyncErrors,
			RecoveredRecords: ps.RecoveredRecords,
			RecoveredSeq:     ps.RecoveredSeq,
			TornBytes:        ps.TornBytes,
		}
	}
	if h := ts.health; h != nil {
		av := &wire.AvailabilityStats{
			State:        "healthy",
			Degradations: h.degradations.Load(),
			Recoveries:   h.recoveries.Load(),
			Probes:       h.probes.Load(),
		}
		if degraded, cause := h.current(); degraded {
			av.State, av.Cause = "degraded", cause
			av.DegradedForMS = h.degradedFor().Milliseconds()
		}
		resp.Availability = av
	}
	if pub := ts.pub; pub != nil {
		rs := pub.Stats()
		pr := &wire.PrimaryReplication{
			HeadSeq:        rs.HeadSeq,
			HistoryBaseSeq: rs.HistoryBase,
			HistoryBytes:   rs.HistoryBytes,
			Followers:      []wire.FollowerConn{}, // [] over null for clients
			Bootstraps:     rs.Bootstraps,
			Resumes:        rs.Resumes,
			WALResumes:     rs.WALResumes,
			Drops:          rs.Drops,
		}
		for _, sub := range rs.Subscribers {
			fc := wire.FollowerConn{
				Remote:      sub.Remote,
				FromSeq:     sub.FromSeq,
				SentSeq:     sub.SentSeq,
				QueuedBytes: sub.QueuedBytes,
				ConnectedMS: sub.ConnectedMS,
			}
			if rs.HeadSeq > sub.SentSeq {
				fc.SeqLag = rs.HeadSeq - sub.SentSeq
			}
			pr.Followers = append(pr.Followers, fc)
		}
		resp.Replication = &wire.ReplicationStats{Role: "primary", Primary: pr}
	}
	if f := ts.fol; f != nil {
		fs := f.Stats()
		fr := &wire.FollowerReplication{
			Primary:        fs.Primary,
			Connected:      fs.Connected,
			PrimarySeq:     fs.PrimarySeq,
			AppliedSeq:     fs.AppliedSeq,
			SeqLag:         fs.SeqLag,
			FramesApplied:  fs.FramesApplied,
			UpdatesApplied: fs.UpdatesApplied,
			Bootstraps:     fs.Bootstraps,
			Resumes:        fs.Resumes,
			Reconnects:     fs.Reconnects,
			Gaps:           fs.Gaps,
			LastError:      fs.LastError,
		}
		if !fs.LastFrame.IsZero() {
			fr.LastFrameUnixMS = fs.LastFrame.UnixMilli()
		}
		resp.Replication = &wire.ReplicationStats{Role: "follower", Follower: fr}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot runs after the route wrapper's read-only gate, but is NOT
// degraded-gated: forcing a snapshot is the manual heal path and must work
// precisely while the durability layer is unwell.
func (s *Server) handleSnapshot(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	st := ts.t.Store()
	if st == nil {
		writeError(w, &wire.Error{
			Code: wire.CodeNoPersistence, Status: http.StatusConflict,
			Message: "tenant has no persistence; start kcore-serve with -data-dir",
		})
		return
	}
	start := time.Now()
	info, err := st.Snapshot()
	if err != nil && !errors.Is(err, persist.ErrCompaction) {
		writeError(w, &wire.Error{Code: wire.CodeInternal, Status: http.StatusInternalServerError,
			Message: fmt.Sprintf("snapshot failed: %v", err)})
		return
	}
	resp := wire.SnapshotResponse{
		Seq:       info.Seq,
		Bytes:     info.Bytes,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000.0,
	}
	if err != nil {
		// The snapshot itself is durably on disk; only the WAL shrink failed.
		// Partial success, not a 500 — re-running the snapshot won't help.
		resp.Warning = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz always answers 200 — it is a liveness probe and must keep
// answering precisely when the server is unwell. Status and Mode carry
// the availability verdict; load balancers route writes on those.
func (s *Server) handleHealthz(ts *tenantServing, w http.ResponseWriter, r *http.Request) {
	resp := wire.HealthResponse{Status: "ok", Mode: "read_write", Seq: ts.t.Engine().Seq()}
	switch {
	case ts.fol != nil:
		resp.Mode = "follower"
	case s.opts.ReadOnly:
		resp.Mode = "read_only"
	}
	if ts.health != nil {
		if degraded, cause := ts.health.current(); degraded {
			resp.Status, resp.Cause = "degraded", cause
			resp.Mode = "read_only"
		}
	}
	if s.draining.Load() {
		resp.Status = "draining"
	}
	writeJSON(w, http.StatusOK, resp)
}
