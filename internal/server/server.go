// Package server implements kcore-serve: an HTTP/JSON network service over
// kcore engines. It exposes a mutation path (POST .../batch through a
// per-tenant ingest coalescer that flushes concurrent client batches through
// one engine Apply), a query path (core/kcore/stats served from immutable
// View snapshots, so readers never block writers), and a live path
// (core-change events over Server-Sent Events, fed by each watched
// engine's change hook, with drop-on-full semantics surfaced as "lagged"
// events).
//
// One server hosts many independent graphs: the tenant-scoped routes
// /v1/t/{tenant}/... resolve through a tenant.Manager (create by touch,
// lazy load from disk, idle eviction), while the legacy /v1/... routes are
// exact aliases for the pinned "default" tenant — the engine passed to New.
//
// The wire protocol — request/response bodies, error envelope and codes,
// and the SSE event schema — is defined and documented in the nested wire
// package. Client is the in-process Go client speaking that protocol; the
// server's own tests and the CI end-to-end smoke drive the service through
// it.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kcore"
	"kcore/internal/persist"
	"kcore/internal/replicate"
	"kcore/internal/tenant"
)

// Options tunes the service limits. The zero value picks the defaults.
type Options struct {
	// MaxBatch is the largest number of updates accepted in one POST
	// /v1/batch request (HTTP 413 beyond it). Default 10000.
	MaxBatch int
	// MaxPending is each tenant's ingest backpressure budget: the largest
	// number of updates buffered across queued requests before further
	// requests are rejected with HTTP 429. Default 100000.
	MaxPending int
	// WatchBuffer is the default per-watch lag window (overridable per
	// request via ?buffer=). Both are clamped to WatchRing. Default 256.
	WatchBuffer int
	// WatchRing is the capacity of each tenant's watch broadcast ring: every
	// change event is encoded once into it, and each watcher reads through
	// a cursor whose lag window is min(?buffer= or WatchBuffer, WatchRing);
	// the watch hello reports that window. Default 4096.
	WatchRing int
	// ReadHeaderTimeout guards Serve against slow-header clients (a
	// slowloris opener never parks a connection past it). Default 10s.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading one mutation request's body (applied
	// per-request via a read deadline on the write endpoints, NOT as
	// http.Server.ReadTimeout — a server-wide read deadline would kill
	// long-lived watch streams). A client trickling a POST body cannot
	// park a handler past it. Default 30s.
	ReadTimeout time.Duration
	// IdleTimeout caps how long Serve keeps an idle keep-alive connection
	// open between requests. Default 2m.
	IdleTimeout time.Duration
	// Keepalive paces comment lines (and pending lagged reports) on idle
	// watch streams. Default 15s.
	Keepalive time.Duration
	// WriteTimeout bounds each SSE write on watch streams, so a watcher
	// whose TCP peer stopped reading cannot park its handler goroutine
	// forever (and with it, graceful shutdown). A healthy-but-slow consumer
	// is unaffected: the deadline applies per write, not per stream.
	// Default 30s.
	WriteTimeout time.Duration
	// Persist, when non-nil, is the durability store managing the default
	// tenant's engine: it enables POST /v1/snapshot and the persistence
	// section of /v1/stats for it. The caller owns its lifecycle
	// (kcore-serve opens it before New and closes it after Shutdown).
	// Named tenants get their own stores through Tenants.DataDir; those are
	// owned — opened, snapshotted, and closed — by the tenant manager.
	Persist *persist.Store
	// ReadOnly rejects the mutating endpoints (POST .../batch, POST
	// .../snapshot) with the stable wire code "read_only" (HTTP 403).
	// Implied by Follower.
	ReadOnly bool
	// Publisher, when non-nil, makes the server a replication primary: it
	// enables GET /v1/replicate and the primary replication section of
	// /v1/stats. Replication spans the default tenant only. The caller owns
	// its lifecycle (attach it to the engine before New, Close it after
	// Shutdown).
	Publisher *replicate.Publisher
	// Follower, when non-nil, makes the server a replication follower: the
	// engine passed to New must be Follower.Engine(), which the follower
	// keeps for its lifetime and re-bootstraps in place, so the default
	// tenant's reads and watch streams follow it across re-bootstraps.
	// Writes are rejected as with ReadOnly naming the primary, and
	// /v1/stats carries the follower replication section. The caller owns
	// the follower's lifecycle.
	Follower *replicate.Follower
	// Tenants configures the lifecycle manager behind the tenant-scoped
	// /v1/t/{tenant}/... routes: data directory, residency bound, idle
	// eviction, and the engine/store options applied to named tenants. The
	// Attach field is owned by the server and overwritten if set. The
	// engine passed to New always serves as the pinned "default" tenant,
	// whatever Tenants says.
	Tenants tenant.Options
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 10000
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 100000
	}
	if o.WatchBuffer <= 0 {
		o.WatchBuffer = 256
	}
	if o.WatchRing <= 0 {
		o.WatchRing = 4096
	}
	if o.ReadHeaderTimeout <= 0 {
		o.ReadHeaderTimeout = 10 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.Keepalive <= 0 {
		o.Keepalive = 15 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// tenantServing is one tenant's serving plane: the ingest coalescer, the
// watch broadcast ring, and (for durable, writable tenants) the availability
// state machine. Built by Server.attach when the tenant becomes resident;
// closed by the tenant manager during eviction or shutdown.
type tenantServing struct {
	t      *tenant.Tenant
	co     *coalescer
	ring   *broadcastRing
	health *health // nil without a store, or on read-only servers
	// pub/fol are set only on the default tenant: replication spans the
	// process's primary graph, not individual tenants.
	pub *replicate.Publisher
	fol *replicate.Follower
}

// Close implements tenant.Attachment: stop admitting writes (draining the
// queued ones), stop the durability prober, and end every watch stream, so
// the tenant's reference count can drain.
func (ts *tenantServing) Close() {
	ts.co.close()
	if ts.health != nil {
		ts.health.close()
	}
	ts.ring.close()
}

// Server serves kcore engines over HTTP. Create it with New, expose it
// either through Serve (which owns an http.Server) or by mounting Handler
// on an existing server, and stop it with Shutdown. The default tenant's
// engine remains usable directly alongside the server — its own locking
// arbitrates.
type Server struct {
	opts Options
	mgr  *tenant.Manager
	// def is the pinned default tenant's serving plane — the engine passed
	// to New. Held directly so the legacy /v1 aliases (and every default-
	// scoped route) bypass tenant resolution entirely.
	def *tenantServing
	mux *http.ServeMux

	httpMu   sync.Mutex
	httpSrv  *http.Server
	stop     chan struct{} // closed by Shutdown: unblocks watch streams
	stopOnce sync.Once
	mgrDone  chan struct{} // closed once every tenant has retired
	draining atomic.Bool
	watchers atomic.Int64
}

// New builds a server around an existing engine, which serves as the pinned
// "default" tenant. With Options.Follower set, engine must be the
// follower's engine.
func New(engine *kcore.Engine, opts Options) *Server {
	if opts.Follower != nil && opts.Follower.Engine() != engine {
		panic("server: New's engine is not Options.Follower.Engine()")
	}
	s := &Server{
		opts:    opts.withDefaults(),
		stop:    make(chan struct{}),
		mgrDone: make(chan struct{}),
	}
	topts := s.opts.Tenants
	topts.Attach = s.attach
	s.mgr = tenant.NewManager(topts)
	def, err := s.mgr.Adopt(tenant.DefaultName, engine, s.opts.Persist)
	if err != nil {
		// Adopting a valid constant name into a fresh manager cannot fail.
		panic(fmt.Sprintf("server: adopting default tenant: %v", err))
	}
	s.def = def.Attachment().(*tenantServing)
	s.registerRoutes()
	return s
}

// attach builds a tenant's serving plane; the tenant manager invokes it once
// per residency (including the adopted default tenant, from New).
func (s *Server) attach(t *tenant.Tenant) (tenant.Attachment, error) {
	ts := &tenantServing{t: t}
	ts.co = newCoalescer(t.Engine(), s.opts.MaxPending)
	ts.ring = newBroadcastRing(t.Engine(), s.opts.WatchRing)
	if t.Name() == tenant.DefaultName {
		ts.pub = s.opts.Publisher
		ts.fol = s.opts.Follower
	}
	if t.Store() != nil && !s.readOnly() {
		ts.health = newHealth(t.Store())
		ts.co.observe = ts.health.observe
	}
	return ts, nil
}

// readOnly reports whether mutations are rejected.
func (s *Server) readOnly() bool { return s.opts.ReadOnly || s.opts.Follower != nil }

// Handler returns the service's HTTP handler, for mounting on an existing
// http.Server (tests use it with httptest). Callers that bypass Serve must
// still call Shutdown to drain the ingest queues and close watch streams.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns nil after a
// clean shutdown (http.ErrServerClosed is swallowed).
func (s *Server) Serve(l net.Listener) error {
	s.httpMu.Lock()
	if s.draining.Load() {
		s.httpMu.Unlock()
		return fmt.Errorf("server: Serve after Shutdown")
	}
	if s.httpSrv != nil {
		s.httpMu.Unlock()
		return fmt.Errorf("server: Serve called twice")
	}
	// ReadTimeout is deliberately NOT set here: a server-wide read deadline
	// fires mid-stream on long-lived SSE watch responses. The write
	// endpoints arm a per-request read deadline instead (see handleBatch).
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.opts.ReadHeaderTimeout,
		IdleTimeout:       s.opts.IdleTimeout,
	}
	srv := s.httpSrv
	s.httpMu.Unlock()
	if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// beginStop starts the one-shot teardown: mark the server draining, end the
// long-lived streams, and retire every tenant in the background. Retiring a
// tenant drains its ingest queue (queued writes were already accepted, so
// they commit), snapshots and closes manager-owned stores, and waits for
// in-flight per-tenant requests to release their references — which is why
// it runs off this goroutine: Shutdown stays bounded by its context even if
// a handler takes its full write deadline to unblock.
func (s *Server) beginStop() {
	s.draining.Store(true)
	s.stopOnce.Do(func() {
		close(s.stop)
		go func() {
			s.mgr.Close()
			close(s.mgrDone)
		}()
	})
}

// Shutdown drains the server gracefully: it stops admitting writes (new
// batch requests get HTTP 503), flushes every queued batch, ends all watch
// streams, evicts every tenant (snapshotting manager-owned stores), and
// then closes the HTTP listener, waiting for in-flight requests up to ctx's
// deadline. It is idempotent. The adopted default store is not closed — its
// owner closes it after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginStop()
	select {
	case <-s.mgrDone:
	case <-ctx.Done():
	}
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// Close shuts the server down forcefully: like Shutdown it drains the
// ingest queues (queued writes were already accepted, so they commit), but
// in-flight HTTP requests and watch streams are cut instead of awaited.
// Use it when a graceful Shutdown exceeded its deadline.
func (s *Server) Close() error {
	s.beginStop()
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close() // cut in-flight requests so tenant references drain
	}
	<-s.mgrDone
	return err
}

// Watchers reports the number of currently connected watch streams, across
// all tenants.
func (s *Server) Watchers() int { return int(s.watchers.Load()) }
