// Command kcore-serve serves dynamic k-core decomposition engines over
// HTTP/JSON: a mutation path (POST .../batch through an ingest coalescer),
// a query path (core/kcore/stats from immutable snapshots), and a live path
// (core-change events over SSE). The wire protocol is documented in
// kcore/internal/server/wire.
//
// Usage:
//
//	kcore-serve                                  serve an empty engine on :8080
//	kcore-serve -addr :9090 -load graph.txt      preload an edge list or snapshot
//	kcore-serve -max-batch 50000                 tune admission
//	kcore-serve -data-dir /var/lib/kcore         durable: snapshot + WAL
//	kcore-serve -data-dir d -fsync always        fsync the WAL per batch
//	kcore-serve -follow http://primary:8080      read-scaling follower
//	kcore-serve -read-only                       serve reads, reject writes
//	kcore-serve -max-tenants 16 -tenant-idle 5m  bound and pace tenant hosting
//
// One process hosts many independent graphs: the tenant-scoped routes
// /v1/t/{tenant}/... create tenants on first write, recover them lazily
// from <data-dir>/tenants/<name>/ after a restart, and evict them back to
// disk after -tenant-idle without traffic (bounded at -max-tenants
// resident). The unscoped /v1/... routes alias the pinned "default" tenant
// — the engine -load/-data-dir describe — so pre-tenant clients are
// unaffected. GET /v1/tenants lists tenants; DELETE /v1/t/{name} evicts.
//
// With -data-dir the engine state survives restarts: boot recovers the
// snapshot plus write-ahead log (truncating a torn tail) before the
// listener accepts, every applied batch is logged before its response is
// sent, and the WAL is compacted into a fresh snapshot past -compact-every
// bytes (or on demand via POST /v1/snapshot). -load seeds only a data
// directory without prior state. The -fsync policy trades durability
// against throughput: "always" (per batch), "interval" (grouped, every
// -sync-every), or "off" (OS-paced; a process crash still loses nothing).
//
// Every server (unless -replicate-history is negative) is also a
// replication primary: followers bootstrap and stream applied batches from
// GET /v1/replicate. With -follow the process is instead a follower: it
// boots by catching up from the primary, applies its stream while serving
// the read and watch endpoints locally, rejects writes with the stable
// "read_only" error, and reports staleness as replication.follower.seq_lag
// in /v1/stats. Replication is asynchronous — a follower read may trail a
// write acknowledged by the primary. A follower replicates only the default
// tenant, so it always runs single-tenant: combining -follow with
// -max-tenants > 1 or -tenant-idle is rejected at boot.
//
// The process drains gracefully on SIGINT/SIGTERM: new writes are refused
// (HTTP 503), queued batches flush, watch streams end, in-flight requests
// get -drain-timeout to finish, and the WAL is synced and closed.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"kcore"
	"kcore/internal/fault"
	"kcore/internal/persist"
	"kcore/internal/replicate"
	"kcore/internal/server"
	"kcore/internal/tenant"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "kcore-serve:", err)
		os.Exit(1)
	}
}

// run builds the engine, binds the listener, and serves until ctx is
// cancelled, then shuts down gracefully. ready, when non-nil, is called
// with the bound address once the listener is accepting — tests and the CI
// end-to-end smoke pass -addr 127.0.0.1:0 and learn the port through it.
func run(ctx context.Context, args []string, out io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("kcore-serve", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		load         = fs.String("load", "", "file to preload: an edge list (whitespace-separated \"u v\" lines) or a KCORSNAP snapshot image")
		maxBatch     = fs.Int("max-batch", 10000, "largest accepted updates per batch request (HTTP 413 beyond)")
		maxPending   = fs.Int("max-pending", 100000, "ingest backpressure budget in buffered updates (HTTP 429 beyond)")
		watchBuffer  = fs.Int("watch-buffer", 256, "default per-watch subscription buffer")
		watchRing    = fs.Int("watch-ring", 4096, "shared watch broadcast ring capacity (every change is encoded once into it; per-watch buffers are clamped to it)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget for in-flight requests")
		dataDir      = fs.String("data-dir", "", "durable state directory (snapshot + write-ahead log); empty serves in memory only")
		fsync        = fs.String("fsync", "interval", "WAL fsync policy with -data-dir: always|interval|off")
		syncEvery    = fs.Duration("sync-every", 100*time.Millisecond, "fsync period for -fsync interval")
		compactEvery = fs.Int64("compact-every", 64<<20, "WAL bytes that trigger snapshot compaction with -data-dir (negative disables)")
		follow       = fs.String("follow", "", "run as a replication follower of the primary kcore-serve at this base URL (implies read-only)")
		followPoll   = fs.Duration("follow-poll", time.Second, "staleness poll period against the primary in follower mode")
		readOnly     = fs.Bool("read-only", false, "reject writes with the stable read_only error; reads keep working")
		maxTenants   = fs.Int("max-tenants", 64, "largest number of resident tenants (HTTP 429 tenant_limit beyond)")
		tenantIdle   = fs.Duration("tenant-idle", 15*time.Minute, "evict durable tenants untouched this long back to disk (0 disables; requires -data-dir)")
		replHistory  = fs.Int("replicate-history", 4<<20, "in-memory replication frame history bytes: every follower's send window (a follower further behind is dropped and resumes) and the resume tier for reconnects (negative disables the replication endpoint)")
		chaosSpec    = fs.String("chaos", "", "FAULT INJECTION (testing only): internal/fault rule spec, e.g. \"seed=42;wal.write:p=0.01;conn.read:p=0.005,drop;apply:panic,count=2\"")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The chaos plane is built empty here (so the store can carry it
	// through recovery un-faulted) and armed with the spec's rules only
	// once the engine is ready — faults target live traffic, not boot.
	var plane *fault.Plane
	var chaosRules []fault.Rule
	if *chaosSpec != "" {
		seed, rules, err := fault.ParseRules(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		plane = fault.New(seed)
		chaosRules = rules
	}
	if *follow != "" {
		// A follower's state IS the primary's stream; local durability or
		// preloads would diverge from it.
		if *dataDir != "" {
			return fmt.Errorf("-follow and -data-dir are mutually exclusive (follower state comes from the primary)")
		}
		if *load != "" {
			return fmt.Errorf("-follow and -load are mutually exclusive (follower state comes from the primary)")
		}
		// A follower replicates only the default tenant (tenant replication
		// is future work — see ROADMAP.md). Hosting named tenants on a
		// follower would serve them unreplicated and silently stale forever,
		// so asking for multi-tenant hosting alongside -follow is rejected
		// loudly, and the tenant defaults narrow to single-tenant hosting.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["max-tenants"] && *maxTenants > 1 {
			return fmt.Errorf("-follow and -max-tenants %d conflict: a follower replicates only the default tenant, so named tenants would be served unreplicated (tenant replication is future work)", *maxTenants)
		}
		if set["tenant-idle"] && *tenantIdle > 0 {
			return fmt.Errorf("-follow and -tenant-idle conflict: idle eviction manages named durable tenants, which a follower cannot host (tenant replication is future work)")
		}
		*maxTenants = 1
		*tenantIdle = 0
	}

	// Parsed up front (not inside the -data-dir branch): named tenants use
	// the same durability policy for their per-tenant stores.
	policy, err := persist.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}

	var engine *kcore.Engine
	var store *persist.Store
	var fol *replicate.Follower
	if *follow != "" {
		// StartFollower blocks (retrying) until the bootstrap succeeds, so
		// the listener only accepts once the engine holds real state —
		// mirroring the -data-dir recovery-before-accept behavior.
		fopts := replicate.FollowerOptions{PollInterval: *followPoll}
		if plane != nil {
			// Chaos in follower mode faults the replication stream's dialer.
			fopts.Client = &http.Client{Transport: &http.Transport{
				DialContext: fault.Dialer(plane, nil),
			}}
		}
		f, err := replicate.StartFollower(ctx, *follow, fopts)
		if err != nil {
			return fmt.Errorf("follow %s: %w", *follow, err)
		}
		defer f.Close()
		fol = f
		engine = f.Engine()
		fmt.Fprintf(out, "following %s: bootstrapped at seq %d\n", f.Primary(), engine.Seq())
	} else if *dataDir != "" {
		var err error
		store, err = persist.Open(*dataDir, persist.Options{
			Sync:         policy,
			SyncEvery:    *syncEvery,
			CompactBytes: *compactEvery,
			Init:         func() (*kcore.Engine, error) { return buildEngine(*load) },
			Fault:        plane,
		})
		if err != nil {
			return fmt.Errorf("recover %s: %w", *dataDir, err)
		}
		defer store.Close()
		engine = store.Engine()
		ps := store.Stats()
		fmt.Fprintf(out, "recovered %s: snapshot seq %d + %d WAL records -> seq %d (fsync %s)\n",
			*dataDir, ps.SnapshotSeq, ps.RecoveredRecords, ps.RecoveredSeq, policy)
		if ps.TornBytes > 0 {
			fmt.Fprintf(out, "truncated torn WAL tail: %d bytes\n", ps.TornBytes)
		}
	} else {
		var err error
		engine, err = buildEngine(*load)
		if err != nil {
			return err
		}
	}
	view := engine.View()
	fmt.Fprintf(out, "engine ready: %d vertices, %d edges, degeneracy %d\n",
		view.NumVertices(), view.NumEdges(), view.Degeneracy())
	if plane != nil {
		for _, r := range chaosRules {
			plane.Add(r)
		}
		engine.SetApplyProbe(plane.ApplyProbe())
		fmt.Fprintf(out, "CHAOS MODE: fault plane armed (%s)\n", plane)
	}

	// Every non-follower is a replication primary unless disabled: the
	// publisher adds an apply hook after the store's (so each batch reaches
	// the WAL before it is published) and serves GET /v1/replicate.
	// Chained replication (a follower re-publishing) is not supported.
	var pub *replicate.Publisher
	if fol == nil && *replHistory >= 0 {
		popts := replicate.PublisherOptions{HistoryBytes: *replHistory}
		if store != nil {
			// With persistence, reconnecting followers can also resume from
			// the on-disk WAL after the in-memory history was evicted.
			popts.WALPath = filepath.Join(store.Dir(), persist.WALFile)
		}
		pub = replicate.NewPublisher(engine, popts)
		defer pub.Close()
	}

	// Bind before constructing the Server: New starts the ingest flusher
	// goroutine, so a listen failure must not leave one behind.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", *addr, err)
	}
	if plane != nil {
		l = fault.WrapListener(plane, l)
	}
	topts := tenant.Options{
		MaxTenants: *maxTenants,
		IdleAfter:  *tenantIdle,
		Persist: persist.Options{
			Sync:         policy,
			SyncEvery:    *syncEvery,
			CompactBytes: *compactEvery,
			Fault:        plane,
		},
	}
	if store != nil {
		// Named tenants persist under <data-dir>/tenants/<name>; followers
		// and memory-only servers host memory-only tenants (never idle-
		// evicted — there is nowhere to put them).
		topts.DataDir = *dataDir
	}
	srv := server.New(engine, server.Options{
		MaxBatch:    *maxBatch,
		MaxPending:  *maxPending,
		WatchBuffer: *watchBuffer,
		WatchRing:   *watchRing,
		Persist:     store,
		ReadOnly:    *readOnly,
		Publisher:   pub,
		Follower:    fol,
		Tenants:     topts,
	})
	idle := "off"
	if *tenantIdle > 0 && store != nil {
		idle = tenantIdle.String()
	}
	fmt.Fprintf(out, "tenant hosting: max %d resident, idle eviction %s\n", *maxTenants, idle)
	fmt.Fprintf(out, "listening on %s\n", l.Addr())
	if ready != nil {
		ready(l.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	select {
	case err := <-serveErr:
		// The listener failed before any shutdown was requested; stop the
		// server's internals so nothing is leaked.
		_ = srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down: draining ingest queue and watch streams")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// The drain budget ran out (e.g. a stalled watcher); cut the
		// remaining connections instead of leaking them.
		_ = srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil {
		return err
	}
	if store != nil {
		// Final WAL sync + close before reporting a clean exit (the deferred
		// Close is then a no-op).
		if err := store.Close(); err != nil {
			return fmt.Errorf("close data dir: %w", err)
		}
	}
	fmt.Fprintln(out, "bye")
	return nil
}

// buildEngine constructs the engine, preloading the -load file when given.
// A KCORSNAP image (saved from GET /v1/snapshot/export, a -data-dir, or
// kcore-gen -snapshot) is restored with full verification and keeps its
// seq; anything else is parsed as a whitespace-separated edge list. The
// engine is a default engine (no options), as every recovered, tenant and
// follower engine is, so a WAL replay or a follower reproduces its k-order.
func buildEngine(path string) (*kcore.Engine, error) {
	if path == "" {
		return kcore.NewEngine(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	prefix, _ := br.Peek(8)
	var e *kcore.Engine
	if persist.IsSnapshot(prefix) {
		e, err = persist.ReadSnapshot(br)
	} else {
		e, err = kcore.Load(br)
	}
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return e, nil
}
