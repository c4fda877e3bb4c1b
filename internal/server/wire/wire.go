// Package wire defines the typed HTTP/JSON protocol of kcore-serve: the
// request and response bodies of every endpoint, the error envelope, and the
// SSE event schema of the watch stream. Both the server handlers
// (internal/server) and the Go client (internal/server.Client) marshal
// exactly these types, so the package is the single source of truth for the
// protocol.
//
// # Endpoints
//
// Bodies are JSON unless the binary protocol is negotiated (see the Binary
// protocol section); all successful responses use status 200 unless noted.
//
//	POST /v1/batch       — apply a mixed add/remove update batch (BatchRequest
//	                       → BatchResponse, or their binary framings). Each
//	                       request is atomic: either every surviving update
//	                       applies or none does.
//	GET  /v1/core/{v}    — core number of one vertex (CoreResponse).
//	GET  /v1/cores       — bulk dump of every vertex's core number
//	                       (CoresResponse as JSON, or the binary KCORDUMP
//	                       frame — the default when the Accept header does
//	                       not ask for JSON).
//	GET  /v1/kcore?k=K   — vertices of the k-core (KCoreResponse).
//	GET  /v1/stats       — graph size, degeneracy, execution, ingest and
//	                       persistence counters (StatsResponse).
//	GET  /v1/watch       — live CoreChange events over Server-Sent Events or
//	                       binary event frames; query parameters min_core and
//	                       buffer configure the subscription (see the watch
//	                       section below).
//	GET  /v1/healthz     — liveness probe (HealthResponse).
//	POST /v1/snapshot    — admin: force a durability snapshot + WAL
//	                       compaction now (SnapshotResponse). Requires the
//	                       server to run with persistence (-data-dir);
//	                       otherwise it fails with code "no_persistence".
//	GET  /v1/snapshot/export — stream the current engine state as a raw
//	                       KCORSNAP image (application/x-kcore-snapshot,
//	                       loadable with internal/persist.ReadSnapshot; the
//	                       X-Kcore-Seq response header carries its seq).
//	GET  /v1/replicate   — replication stream for followers (binary, not
//	                       JSON: a bootstrap section, optionally carrying a
//	                       KCORSNAP snapshot, followed by a live KCOREWAL
//	                       frame stream; see internal/replicate). The
//	                       optional ?from=<seq> query asks to resume at that
//	                       sequence number. Fails with "no_replication" when
//	                       the server is not a replicating primary.
//	GET  /v1/tenants     — admin: list every known tenant, resident or cold
//	                       on disk, with lifecycle state and admission
//	                       counters (TenantsResponse).
//	DELETE /v1/t/{tenant} — admin: evict one tenant from residency
//	                       (EvictResponse). Durable tenants are snapshotted
//	                       and closed — one lazy load away from serving
//	                       again; memory-only tenants lose their graph. The
//	                       pinned "default" tenant refuses with HTTP 400.
//
// # Multi-tenancy
//
// One server hosts many independent graphs. Every graph-scoped endpoint
// above exists in a tenant-scoped form under /v1/t/{tenant}/... — e.g.
// POST /v1/t/acme/batch, GET /v1/t/acme/kcore?k=3 — with identical
// request/response bodies. The legacy unscoped /v1/... routes are exact
// aliases for the pinned "default" tenant, so single-tenant deployments
// and pre-tenant clients keep working unchanged.
//
// Tenants are created by touch: the first POST .../batch to an unknown name
// admits a fresh tenant (names: lowercase [a-z0-9._-], max 64 bytes,
// starting alphanumeric). Read requests to names with no state answer 404
// with the stable code "unknown_tenant". When the server runs with a data
// directory, each named tenant persists under <data-dir>/tenants/<name>/
// and is recovered lazily on its first touch after a restart; tenants idle
// past the server's -tenant-idle are snapshotted and evicted from memory
// automatically. At most -max-tenants tenants are resident at once; past
// the bound, admission answers 429 "tenant_limit" with a Retry-After
// header. GET .../stats echoes the serving tenant in StatsResponse.Tenant.
//
// # Binary protocol
//
// The hot paths — bulk ingest, bulk reads and the watch stream — have binary
// framings negotiated per request through the standard HTTP headers:
//
//   - POST /v1/batch with Content-Type: application/x-kcore-batch sends the
//     updates as one persist batch frame (KCORBTCH magic, varint-encoded
//     updates, CRC-32 trailer; see internal/persist.AppendBatchFrame) instead
//     of a BatchRequest. The server decodes it into pooled scratch — the
//     steady state allocates nothing per request.
//   - Accept: application/x-kcore-batch on POST /v1/batch selects the binary
//     batch ack (AppendBatchAck) over the JSON BatchResponse.
//   - GET /v1/cores answers the binary KCORDUMP frame unless Accept asks for
//     application/json specifically (absent and wildcard Accept both pick
//     binary — the dump exists for bulk transfer).
//   - Accept: application/x-kcore-events on GET /v1/watch selects binary
//     event frames (ReadEventFrame) over SSE.
//
// A request whose Content-Type the endpoint cannot decode, or whose Accept
// header rules out every representation the endpoint can produce, fails with
// HTTP 415 and the stable code "unsupported_media_type" — before any side
// effect, so a 415 never applied anything. Error responses always use the
// JSON envelope regardless of negotiation (errors are rare and need no
// binary fast path; a client that can send the binary protocol can parse
// JSON). Absent headers mean JSON everywhere except GET /v1/cores, so plain
// curl and pre-binary clients observe the exact JSON protocol that existed
// before the binary framings. The Go Client negotiates automatically when
// its Binary field is set: one 415 from a pre-binary server downgrades it to
// JSON permanently, so Binary is always safe to enable.
//
// # Replication and read-only mode
//
// kcore-serve started with -follow=<primary-url> replicates that primary:
// it bootstraps from /v1/replicate, applies streamed frames to its local
// engine, and serves the read endpoints (core, kcore, stats, watch) from
// it. Replication is asynchronous — follower reads are eventually
// consistent, read-your-primary-writes is NOT guaranteed — and the
// staleness is observable: StatsResponse.Replication carries seq_lag on
// followers and per-follower progress on the primary.
//
// Mutating endpoints (POST /v1/batch, POST /v1/snapshot) on a follower, or
// on any server started with -read-only, fail with the stable code
// "read_only" (HTTP 403); on followers the error message names the primary
// to write to.
//
// # Durability
//
// When kcore-serve runs with a data directory, every applied batch is
// appended to a write-ahead log before its POST /v1/batch response is sent
// (fsync timing depends on the server's -fsync policy), and the engine state
// is periodically compacted into a snapshot. A WAL append failure is
// reported with code "persistence_failed" (HTTP 500): the batch IS applied
// in memory — retrying it would double-apply — but was not made durable.
// For a transient fault the failed records are retained in a bounded
// backlog and written ahead of the next batch that lands, so the log
// catches up with nothing lost. If the log cannot accept records at all,
// further batches keep answering "persistence_failed" (the log refuses
// records that would leave a replay-breaking sequence gap) until a snapshot
// re-covers the gap. The server schedules that healing snapshot
// automatically — unless it runs with background compaction disabled
// (-compact-every < 0), where POST /v1/snapshot must be called to heal —
// and POST /v1/snapshot forces it at any time. StatsResponse.Persist
// exposes the durability counters.
//
// POST /v1/snapshot distinguishes partial success: when the snapshot file
// was durably written but the WAL compaction step failed, the response is
// still 200 with SnapshotResponse.Warning set — the data is safe, the log
// merely kept its size — rather than a misleading 500.
//
// # Degraded mode
//
// A persisted server tracks its durability layer's health. When the
// write-ahead log seals itself (unusable handle) or several consecutive
// batches fail their append, the server flips to degraded read-only mode:
// POST /v1/batch and /v1/snapshot answer 503 with the stable code
// "degraded" and a Retry-After header (the write never applied — retrying
// it is safe, unlike "persistence_failed"), reads keep working, and
// GET /v1/healthz reports status "degraded" with the cause. A background
// recovery probe repeatedly tries to heal the log (snapshot + rebuild)
// with jittered exponential backoff; once the log accepts appends again
// the server re-enters healthy mode on its own. The transitions are
// observable in StatsResponse.Availability.
//
// Reads never block writes, and every query response carries the engine
// sequence number ("seq") of the state it describes. The k-core listing is
// served from an immutable engine snapshot (kcore.Engine.View); the
// single-vertex core and the stats scalars are read as consistent
// (value, seq) pairs under one shared-lock acquisition (kcore.Engine.CoreSeq
// and Counts), which is observably equivalent and avoids View's O(n) copy
// per request.
//
// # Batch coalescing and atomicity
//
// Concurrent POST /v1/batch requests are funneled through an ingest
// coalescer: requests that arrive while an earlier flush is still applying
// are buffered and flushed through one kcore Apply call, amortizing batch
// planning and lock acquisition across callers. The contract:
//
//   - Each request stays atomic. Either all of its (surviving) updates
//     commit, or the request fails and changes nothing.
//   - Requests flushed together behave as one ordered batch, ordered by
//     arrival. In particular, self-annihilating pairs MAY coalesce across
//     requests: if one request adds an edge and a co-flushed later request
//     removes it, both updates can be elided entirely (reported via
//     BatchResponse.Coalesced, exactly like an intra-batch pair).
//   - A request never fails because another request in its flush group is
//     invalid: when a combined flush fails validation, the server re-applies
//     each request individually, in arrival order, so every caller gets its
//     own success or its own structured error.
//   - BatchResponse.Seq is the engine sequence number after the whole flush
//     group committed (group-final, not request-final).
//   - When the engine applied a multi-request flush group by wholesale
//     recomputation (Recomputed is true and FlushedWith > 1), per-update
//     attribution does not exist: CoreChanged is omitted and Applied reports
//     the request's submitted update count.
//
// # Watch events
//
// GET /v1/watch responds with Content-Type: text/event-stream (SSE) by
// default, or with application/x-kcore-events (binary frames) when Accept
// selects it. Three event types are sent; as SSE each carries a JSON data
// payload:
//
//	event: hello    data: HelloEvent   — once, immediately: subscription
//	                                     parameters and the current seq.
//	event: change   data: ChangeEvent  — one per core-number change.
//	event: lagged   data: LaggedEvent  — the subscriber fell behind and
//	                                     events were dropped.
//
// Events fan out through a shared broadcast ring that each committing
// batch fills: each change is encoded once per framing (not once per
// watcher), and every watcher walks the ring through its own cursor. The
// engine never blocks on a slow watcher. Events that fall out of a
// watcher's lag window — the "buffer" query parameter (default 256),
// clamped to the ring capacity (kcore-serve -watch-ring, default 4096); the
// hello reports the clamped value — are the only ones dropped, and the
// next time the stream catches up a "lagged" event reports the cumulative
// drop count. The count may slightly over-report for min_core-filtered
// subscribers: drops are counted before the filter, so some dropped events
// would have been filtered out anyway.
// Consumers that must not miss changes should treat "lagged" as a signal to
// resynchronize via GET /v1/cores (or /v1/stats + /v1/kcore).
//
// A panic repair and a follower's re-bootstrap (which keeps watch streams
// open) arrive as change events too, one per vertex whose core moved, at
// the new state's seq. A re-bootstrap onto a primary that lost unsynced
// batches moves seq back.
package wire

import "strconv"

// Update is one edge update in a batch request. Op is "add" or "remove".
type Update struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

// Op values accepted in Update.Op.
const (
	OpAdd    = "add"
	OpRemove = "remove"
)

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Updates is the ordered update list. It must be non-empty and no longer
	// than the server's max-batch limit.
	Updates []Update `json:"updates"`
}

// BatchResponse reports the effect of one applied batch request.
type BatchResponse struct {
	// Seq is the engine update sequence number after this request's flush
	// group committed (see the coalescing contract in the package comment).
	Seq uint64 `json:"seq"`
	// Applied is the number of this request's updates that took effect.
	// When Recomputed is set for a multi-request flush group, it reports the
	// submitted update count instead (per-update attribution does not exist).
	Applied int `json:"applied"`
	// Coalesced counts this request's updates elided as self-annihilating
	// pairs — including pairs formed across co-flushed requests.
	Coalesced int `json:"coalesced"`
	// Recomputed reports that the engine applied the flush group by one
	// wholesale recomputation instead of per-update maintenance.
	Recomputed bool `json:"recomputed,omitempty"`
	// FlushedWith is the number of requests in the flush group this request
	// was applied with, including itself (1 = applied alone).
	FlushedWith int `json:"flushed_with"`
	// CoreChanged lists the vertices whose core number changed due to this
	// request's updates, deduplicated, in first-change order. Omitted when
	// the flush group was recomputed with FlushedWith > 1.
	CoreChanged []int `json:"core_changed,omitempty"`
	// Visited sums the per-update search-space sizes (the paper's |V+|/|V'|
	// metric); 0 when unattributable.
	Visited int `json:"visited,omitempty"`
}

// CoreResponse is the body of GET /v1/core/{v}.
type CoreResponse struct {
	Vertex int    `json:"vertex"`
	Core   int    `json:"core"`
	Seq    uint64 `json:"seq"`
}

// KCoreResponse is the body of GET /v1/kcore?k=K.
type KCoreResponse struct {
	K        int    `json:"k"`
	Count    int    `json:"count"`
	Vertices []int  `json:"vertices"`
	Seq      uint64 `json:"seq"`
}

// ExecStats mirrors kcore.ExecStats without its deprecated fields: lifetime
// update counts per batch execution mode, plus the count of contained
// engine panics.
type ExecStats struct {
	Sequential uint64 `json:"sequential"`
	Recomputed uint64 `json:"recomputed"`
	// Panics counts batches quarantined by the engine's panic containment:
	// the batch was rejected and the maintained state rebuilt wholesale.
	// Non-zero values deserve investigation.
	Panics uint64 `json:"panics,omitempty"`
}

// IngestStats counts the ingest coalescer's lifetime activity.
type IngestStats struct {
	// Flushes is the number of Apply calls the coalescer issued.
	Flushes uint64 `json:"flushes"`
	// Requests is the number of batch requests flushed.
	Requests uint64 `json:"requests"`
	// Grouped counts requests that shared their flush with at least one
	// other request (the coalescer's amortization win).
	Grouped uint64 `json:"grouped"`
	// Fallbacks counts flush groups that failed combined validation and were
	// re-applied request by request.
	Fallbacks uint64 `json:"fallbacks"`
	// Rejected counts requests refused for backpressure (HTTP 429).
	Rejected uint64 `json:"rejected"`
}

// PersistStats mirrors the persistence layer's durability counters
// (internal/persist.Stats); present in StatsResponse only when the server
// runs with a data directory.
type PersistStats struct {
	// SnapshotSeq and SnapshotBytes describe the current on-disk snapshot.
	SnapshotSeq   uint64 `json:"snapshot_seq"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	// WALRecords and WALBytes describe the current write-ahead log.
	WALRecords uint64 `json:"wal_records"`
	WALBytes   int64  `json:"wal_bytes"`
	// Appends, Syncs and Compactions are lifetime durability counters.
	// AppendRetrySaves counts appends that failed transiently and succeeded
	// within the store's bounded in-line retry — faults callers never saw.
	Appends          uint64 `json:"appends"`
	AppendRetrySaves uint64 `json:"append_retry_saves,omitempty"`
	Syncs            uint64 `json:"syncs"`
	Compactions      uint64 `json:"compactions"`
	// CompactErrors counts failed background compactions; SyncErrors counts
	// failed background interval fsyncs. Both should stay 0 — a non-zero
	// value means acknowledged batches may have reduced durability.
	CompactErrors uint64 `json:"compact_errors"`
	SyncErrors    uint64 `json:"sync_errors"`
	// RecoveredRecords, RecoveredSeq and TornBytes describe the boot-time
	// recovery (TornBytes > 0 means a torn WAL tail was truncated).
	RecoveredRecords uint64 `json:"recovered_records"`
	RecoveredSeq     uint64 `json:"recovered_seq"`
	TornBytes        int64  `json:"torn_bytes"`
}

// ReplicationStats is the replication section of StatsResponse: Role is
// "primary" (serving /v1/replicate) or "follower" (replicating one), and
// exactly one of Primary/Follower is set.
type ReplicationStats struct {
	Role     string               `json:"role"`
	Primary  *PrimaryReplication  `json:"primary,omitempty"`
	Follower *FollowerReplication `json:"follower,omitempty"`
}

// PrimaryReplication is the primary's view of its followers.
type PrimaryReplication struct {
	// HeadSeq is the last published sequence number; HistoryBaseSeq is the
	// earliest one still resumable from the in-memory frame history
	// (HistoryBytes big).
	HeadSeq        uint64 `json:"head_seq"`
	HistoryBaseSeq uint64 `json:"history_base_seq"`
	HistoryBytes   int64  `json:"history_bytes"`
	// Followers lists the connected replication subscribers.
	Followers []FollowerConn `json:"followers"`
	// Bootstraps/Resumes/WALResumes count served connection kinds; Drops
	// counts followers disconnected because they fell more than the frame
	// history behind (they reconnect and resume).
	Bootstraps uint64 `json:"bootstraps"`
	Resumes    uint64 `json:"resumes"`
	WALResumes uint64 `json:"wal_resumes"`
	Drops      uint64 `json:"drops"`
}

// FollowerConn is one connected follower as the primary sees it.
type FollowerConn struct {
	Remote string `json:"remote"`
	// FromSeq is the seq the follower asked to resume from (0 on a fresh
	// bootstrap); SentSeq is the last seq handed to its transport — the
	// closest one-way streaming gets to an acked seq; SeqLag is HeadSeq
	// minus SentSeq. QueuedBytes is how many bytes of the frame history the
	// follower's stream has not read yet.
	FromSeq     uint64 `json:"from_seq"`
	SentSeq     uint64 `json:"sent_seq"`
	SeqLag      uint64 `json:"seq_lag"`
	QueuedBytes int64  `json:"queued_bytes"`
	ConnectedMS int64  `json:"connected_ms"`
}

// FollowerReplication is a follower's replication health.
type FollowerReplication struct {
	// Primary is the replicated primary's base URL.
	Primary   string `json:"primary"`
	Connected bool   `json:"connected"`
	// SeqLag is how far this follower's engine trails the primary's last
	// known seq (stream frames + a periodic healthz poll); PrimarySeq and
	// AppliedSeq are its terms.
	PrimarySeq uint64 `json:"primary_seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	SeqLag     uint64 `json:"seq_lag"`
	// LastFrameUnixMS is when the last frame applied (0 before any).
	LastFrameUnixMS int64  `json:"last_frame_unix_ms"`
	FramesApplied   uint64 `json:"frames_applied"`
	UpdatesApplied  uint64 `json:"updates_applied"`
	// Bootstraps counts snapshot bootstraps (1 is the boot one; more mean
	// re-bootstraps after gaps), Resumes seamless reconnects, Gaps chain
	// breaks that forced a re-bootstrap.
	Bootstraps uint64 `json:"bootstraps"`
	Resumes    uint64 `json:"resumes"`
	Reconnects uint64 `json:"reconnects"`
	Gaps       uint64 `json:"gaps"`
	LastError  string `json:"last_error,omitempty"`
}

// SnapshotResponse is the body of POST /v1/snapshot.
type SnapshotResponse struct {
	// Seq is the engine sequence number the snapshot captured.
	Seq uint64 `json:"seq"`
	// Bytes is the written snapshot's size.
	Bytes int64 `json:"bytes"`
	// ElapsedMS is the wall-clock time the snapshot + compaction took.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Warning reports a partial success: the snapshot was durably written
	// but the WAL compaction step failed, so the log kept its size. Empty
	// on full success.
	Warning string `json:"warning,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// Tenant names the graph these stats describe ("default" on the legacy
	// unscoped route).
	Tenant     string      `json:"tenant,omitempty"`
	Vertices   int         `json:"vertices"`
	Edges      int         `json:"edges"`
	Degeneracy int         `json:"degeneracy"`
	Seq        uint64      `json:"seq"`
	Algorithm  string      `json:"algorithm"`
	Watchers   int         `json:"watchers"`
	Exec       ExecStats   `json:"exec"`
	Ingest     IngestStats `json:"ingest"`
	// Persist carries the durability counters; nil when the server runs
	// without persistence.
	Persist *PersistStats `json:"persist,omitempty"`
	// Availability carries the degraded-mode state machine's counters; nil
	// when the server runs without persistence (it then has no durability
	// layer to degrade on).
	Availability *AvailabilityStats `json:"availability,omitempty"`
	// Replication carries replication health; nil when the server neither
	// publishes to followers nor follows a primary.
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// AvailabilityStats is the availability section of StatsResponse: the
// current state of the degraded-mode state machine and its lifetime
// transition counters.
type AvailabilityStats struct {
	// State is "healthy" or "degraded". While degraded the server is
	// read-only: writes answer 503 "degraded" with a Retry-After header.
	State string `json:"state"`
	// Cause describes what degraded the server; empty while healthy.
	Cause string `json:"cause,omitempty"`
	// DegradedForMS is how long the server has been degraded (0 while
	// healthy).
	DegradedForMS int64 `json:"degraded_for_ms,omitempty"`
	// Degradations and Recoveries count state transitions; Probes counts
	// recovery-probe attempts (each tries to heal the durability layer).
	Degradations uint64 `json:"degradations"`
	Recoveries   uint64 `json:"recoveries"`
	Probes       uint64 `json:"probes"`
}

// HealthResponse is the body of GET /v1/healthz. The endpoint always
// answers 200 — it is a liveness probe; route write traffic on Status
// ("ok") and Mode ("read_write") instead.
type HealthResponse struct {
	// Status is "ok", "degraded" (durability failing, writes rejected with
	// 503 until the recovery probe heals the log), or "draining" (shutdown
	// in progress).
	Status string `json:"status"`
	// Mode is the write-path mode: "read_write", "read_only" (started with
	// -read-only, or temporarily while degraded), or "follower".
	Mode string `json:"mode"`
	// Cause explains a degraded status; empty otherwise.
	Cause string `json:"cause,omitempty"`
	Seq   uint64 `json:"seq"`
}

// TenantInfo is one tenant in TenantsResponse.
type TenantInfo struct {
	Name string `json:"name"`
	// State is the lifecycle phase: "loading" (recovery in progress),
	// "ready" (serving), "evicting" (draining references / flushing), or
	// "unloaded" (durable state on disk, not resident).
	State string `json:"state"`
	// Pinned marks the default tenant, which cannot be evicted.
	Pinned bool `json:"pinned,omitempty"`
	// Durable reports the tenant has (or is) on-disk state.
	Durable bool `json:"durable"`
	// Refs is the number of requests currently holding the tenant; IdleMS is
	// how long it has been unreferenced (0 while referenced or non-resident).
	Refs   int   `json:"refs"`
	IdleMS int64 `json:"idle_ms"`
	// Seq/Vertices/Edges describe the resident engine; all zero for
	// "unloaded" tenants (sizing them would force the load being avoided).
	Seq      uint64 `json:"seq"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

// TenantsResponse is the body of GET /v1/tenants.
type TenantsResponse struct {
	// Resident and MaxTenants describe the residency bound; the admission
	// counters below are lifetime totals.
	Resident   int    `json:"resident"`
	MaxTenants int    `json:"max_tenants"`
	Loads      uint64 `json:"loads"`
	Creates    uint64 `json:"creates"`
	Evictions  uint64 `json:"evictions"`
	Rejections uint64 `json:"rejections"`
	// Tenants lists every known tenant, sorted by name.
	Tenants []TenantInfo `json:"tenants"`
}

// EvictResponse is the body of DELETE /v1/t/{tenant}.
type EvictResponse struct {
	Tenant string `json:"tenant"`
	// Evicted is true even when the tenant was already cold on disk (the
	// eviction is idempotent).
	Evicted bool `json:"evicted"`
}

// SSE event names sent on /v1/watch streams.
const (
	EventHello  = "hello"
	EventChange = "change"
	EventLagged = "lagged"
)

// HelloEvent is the data payload of the initial "hello" SSE event.
type HelloEvent struct {
	// Seq is the engine sequence number when the subscription was created;
	// changes with Seq greater than this value will be delivered (modulo
	// drops). Changes at or before this value MAY additionally be delivered:
	// the cursor attaches to the broadcast ring before Seq is read, so a
	// change racing the subscription can appear on both sides of the hello.
	Seq uint64 `json:"seq"`
	// MinCore and Buffer echo the subscription parameters in effect: Buffer
	// is the watcher's lag window, the requested buffer clamped to the
	// server's ring capacity.
	MinCore int `json:"min_core"`
	Buffer  int `json:"buffer"`
}

// ChangeEvent is the data payload of a "change" SSE event: one vertex's
// core-number transition (mirrors kcore.CoreChange).
type ChangeEvent struct {
	Vertex  int    `json:"vertex"`
	OldCore int    `json:"old_core"`
	NewCore int    `json:"new_core"`
	Seq     uint64 `json:"seq"`
}

// AppendChangeSSE appends c as one SSE "change" event: the bytes
// encoding/json produces for c, framed as "event: change\ndata: <json>\n\n".
func AppendChangeSSE(buf []byte, c ChangeEvent) []byte {
	buf = strconv.AppendInt(append(buf, "event: "+EventChange+"\ndata: {\"vertex\":"...), int64(c.Vertex), 10)
	buf = strconv.AppendInt(append(buf, `,"old_core":`...), int64(c.OldCore), 10)
	buf = strconv.AppendInt(append(buf, `,"new_core":`...), int64(c.NewCore), 10)
	buf = strconv.AppendUint(append(buf, `,"seq":`...), c.Seq, 10)
	return append(buf, "}\n\n"...)
}

// LaggedEvent is the data payload of a "lagged" SSE event: the watcher fell
// behind its buffer and events were dropped.
type LaggedEvent struct {
	// Dropped is the cumulative number of events dropped on this
	// subscription since it was created.
	Dropped uint64 `json:"dropped"`
}
