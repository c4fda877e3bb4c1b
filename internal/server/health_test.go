package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kcore"
	"kcore/internal/fault"
	"kcore/internal/persist"
	"kcore/internal/replicate"
	"kcore/internal/server/wire"
)

// openFaultStore opens a persisted engine with an armed fault plane.
func openFaultStore(t *testing.T, pl *fault.Plane) *persist.Store {
	t.Helper()
	st, err := persist.Open(t.TempDir(), persist.Options{
		Sync: persist.SyncOff, CompactBytes: -1, Fault: pl,
		RetryBackoff: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// TestHealthzTable asserts the healthz verdict across every server role
// and availability state.
func TestHealthzTable(t *testing.T) {
	ctx := context.Background()

	health := func(t *testing.T, c *Client) *wire.HealthResponse {
		t.Helper()
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatalf("Health: %v", err)
		}
		return h
	}

	t.Run("healthy read-write", func(t *testing.T) {
		_, c := newTestServer(t, kcore.NewEngine(), Options{})
		if h := health(t, c); h.Status != "ok" || h.Mode != "read_write" || h.Cause != "" {
			t.Fatalf("healthz = %+v, want ok/read_write", h)
		}
	})

	t.Run("read-only", func(t *testing.T) {
		_, c := newTestServer(t, kcore.NewEngine(), Options{ReadOnly: true})
		if h := health(t, c); h.Status != "ok" || h.Mode != "read_only" {
			t.Fatalf("healthz = %+v, want ok/read_only", h)
		}
	})

	t.Run("draining", func(t *testing.T) {
		e := kcore.NewEngine()
		s := New(e, Options{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		c, err := NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
		if h := health(t, c); h.Status != "draining" {
			t.Fatalf("healthz = %+v, want draining", h)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		pl := fault.New(7)
		st := openFaultStore(t, pl)
		s, c := newTestServer(t, st.Engine(), Options{Persist: st})
		s.def.health.degrade("test-injected durability failure")
		h := health(t, c)
		if h.Status != "degraded" || h.Mode != "read_only" || h.Cause == "" {
			t.Fatalf("healthz = %+v, want degraded/read_only with cause", h)
		}
	})

	t.Run("follower", func(t *testing.T) {
		eng := kcore.NewEngine()
		pub := replicate.NewPublisher(eng, replicate.PublisherOptions{})
		defer pub.Close()
		_, pc := newTestServer(t, eng, Options{Publisher: pub})
		if _, err := pc.AddEdges(ctx, [][2]int{{0, 1}}); err != nil {
			t.Fatal(err)
		}
		fol, err := replicate.StartFollower(ctx, pc.base, replicate.FollowerOptions{})
		if err != nil {
			t.Fatalf("StartFollower: %v", err)
		}
		defer fol.Close()
		_, fc := newTestServer(t, fol.Engine(), Options{Follower: fol})
		if h := health(t, fc); h.Status != "ok" || h.Mode != "follower" {
			t.Fatalf("healthz = %+v, want ok/follower", h)
		}
	})
}

// TestDegradedModeFlow drives the full availability cycle end to end:
// persistent WAL faults fail enough consecutive batches to degrade the
// server (healthz reports cause, writes answer 503 "degraded" with
// Retry-After), then the fault clears and the recovery probe heals the
// log, writes flow again, and the stats record one degradation and one
// recovery.
func TestDegradedModeFlow(t *testing.T) {
	ctx := context.Background()
	pl := fault.New(11)
	st := openFaultStore(t, pl)
	e := st.Engine()
	_, c := newTestServer(t, e, Options{Persist: st})
	c.Retry = nil // observe rejections raw

	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}}); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	// Every WAL write fails until cleared: each POST exhausts the store's
	// in-line retry and surfaces persistence_failed; degradeAfter of those
	// in a row trip the state machine.
	pl.Fail(fault.WALWrite, 100000, errors.New("injected: disk on fire"))
	for i := 0; i < degradeAfter; i++ {
		_, err := c.AddEdges(ctx, [][2]int{{i + 1, i + 2}})
		if !isWireCode(err, wire.CodePersistenceFailed, http.StatusInternalServerError) {
			t.Fatalf("write %d under fault: err = %v, want persistence_failed", i, err)
		}
	}

	// Degraded: writes now answer 503 "degraded" + Retry-After, healthz
	// stays 200 but says so, and the write never applies.
	seqBefore := e.Seq()
	_, err := c.AddEdges(ctx, [][2]int{{90, 91}})
	if !isWireCode(err, wire.CodeDegraded, http.StatusServiceUnavailable) {
		t.Fatalf("write while degraded: err = %v, want degraded 503", err)
	}
	var we *wire.Error
	if errors.As(err, &we) && we.RetryAfter <= 0 {
		t.Fatalf("degraded rejection carries no Retry-After: %+v", we)
	}
	if e.Seq() != seqBefore {
		t.Fatal("degraded rejection must not apply the batch")
	}
	h, err := c.Health(ctx)
	if err != nil || h.Status != "degraded" || h.Mode != "read_only" || h.Cause == "" {
		t.Fatalf("healthz while degraded = %+v, err %v", h, err)
	}
	// Reads keep working while degraded.
	if _, err := c.Core(ctx, 0); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}

	// Clear the fault: the recovery probe heals the log and re-enters
	// healthy on its own.
	pl.ClearOp(fault.WALWrite)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if h, err = c.Health(ctx); err == nil && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover; last healthz %+v err %v", h, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.AddEdges(ctx, [][2]int{{50, 51}}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	av := stats.Availability
	if av == nil || av.State != "healthy" || av.Degradations != 1 ||
		av.Recoveries != 1 || av.Probes == 0 {
		t.Fatalf("availability stats = %+v, want healthy after 1 degradation/recovery", av)
	}

	// The healed directory recovers everything that was acknowledged.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := persist.Open(st.Dir(), persist.Options{Sync: persist.SyncOff})
	if err != nil {
		t.Fatalf("reopen healed dir: %v", err)
	}
	defer st2.Close()
	if st2.Engine().Seq() != e.Seq() {
		t.Fatalf("recovered seq %d, want %d", st2.Engine().Seq(), e.Seq())
	}
}

// TestClientRetryPolicy asserts the client's transient-rejection retry:
// overloaded and degraded responses are retried within the attempt cap,
// everything else fails fast.
func TestClientRetryPolicy(t *testing.T) {
	ctx := context.Background()
	reject := func(code string, status int, n int) (*httptest.Server, *int) {
		calls := 0
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls++
			if calls <= n {
				w.Header().Set("Retry-After", "0")
				writeJSON(w, status, wire.ErrorResponse{Error: &wire.Error{
					Code: code, Status: status, Message: "injected"}})
				return
			}
			writeJSON(w, http.StatusOK, wire.BatchResponse{Seq: uint64(calls)})
		}))
		return ts, &calls
	}

	t.Run("retries overloaded then succeeds", func(t *testing.T) {
		ts, calls := reject(wire.CodeOverloaded, http.StatusTooManyRequests, 2)
		defer ts.Close()
		c, _ := NewClient(ts.URL, ts.Client())
		c.Retry = &RetryPolicy{Attempts: 4,
			Backoff: fault.Backoff{Min: time.Millisecond, Max: 4 * time.Millisecond}}
		if _, err := c.AddEdges(ctx, [][2]int{{0, 1}}); err != nil {
			t.Fatalf("err = %v, want success on third attempt", err)
		}
		if *calls != 3 {
			t.Fatalf("calls = %d, want 3", *calls)
		}
	})

	t.Run("gives up after the attempt cap", func(t *testing.T) {
		ts, calls := reject(wire.CodeDegraded, http.StatusServiceUnavailable, 1000)
		defer ts.Close()
		c, _ := NewClient(ts.URL, ts.Client())
		c.Retry = &RetryPolicy{Attempts: 3,
			Backoff: fault.Backoff{Min: time.Millisecond, Max: 4 * time.Millisecond}}
		_, err := c.AddEdges(ctx, [][2]int{{0, 1}})
		if !isWireCode(err, wire.CodeDegraded, http.StatusServiceUnavailable) {
			t.Fatalf("err = %v, want the degraded rejection after retries", err)
		}
		if *calls != 3 {
			t.Fatalf("calls = %d, want exactly the attempt cap", *calls)
		}
	})

	t.Run("never retries persistence_failed", func(t *testing.T) {
		ts, calls := reject(wire.CodePersistenceFailed, http.StatusInternalServerError, 1000)
		defer ts.Close()
		c, _ := NewClient(ts.URL, ts.Client())
		if _, err := c.AddEdges(ctx, [][2]int{{0, 1}}); !isWireCode(err,
			wire.CodePersistenceFailed, http.StatusInternalServerError) {
			t.Fatalf("err = %v, want immediate persistence_failed", err)
		}
		if *calls != 1 {
			t.Fatalf("calls = %d, want 1 (retry would double-apply)", *calls)
		}
	})

	t.Run("never retries shutting_down", func(t *testing.T) {
		ts, calls := reject(wire.CodeShuttingDown, http.StatusServiceUnavailable, 1000)
		defer ts.Close()
		c, _ := NewClient(ts.URL, ts.Client())
		if _, err := c.AddEdges(ctx, [][2]int{{0, 1}}); !isWireCode(err,
			wire.CodeShuttingDown, http.StatusServiceUnavailable) {
			t.Fatalf("err = %v, want immediate shutting_down", err)
		}
		if *calls != 1 {
			t.Fatalf("calls = %d, want 1 (the server is going away)", *calls)
		}
	})
}

// TestSlowHeaderClientDisconnected: a slowloris opener that trickles its
// request header is cut at ReadHeaderTimeout instead of parking a
// connection forever.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	s := New(kcore.NewEngine(), Options{ReadHeaderTimeout: 100 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An incomplete header block, then silence.
	if _, err := conn.Write([]byte("GET /v1/healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read succeeded; want the server to cut the slow-header connection")
	}
}

// TestSlowBodyWriterDisconnected: a client that sends complete headers for
// POST /v1/batch but trickles the body is cut at the per-request
// ReadTimeout — without affecting long-lived SSE watch streams (which the
// companion sse tests cover under the same server defaults).
func TestSlowBodyWriterDisconnected(t *testing.T) {
	s := New(kcore.NewEngine(), Options{ReadTimeout: 150 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	header := "POST /v1/batch HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n"
	if _, err := conn.Write([]byte(header + `{"updates":[`)); err != nil {
		t.Fatal(err)
	}
	// Trickle nothing further: the handler's read deadline must fire and
	// fail the request rather than waiting for the full body forever.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return // connection cut outright: equally acceptable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (deadline-failed body decode) or a cut connection", resp.StatusCode)
	}
	var envelope wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err == nil && envelope.Error != nil {
		if envelope.Error.Code != wire.CodeBadRequest {
			t.Fatalf("code = %s, want bad_request", envelope.Error.Code)
		}
	}
}

// TestRetryAfterOn429: backpressure rejections carry the Retry-After
// header on the wire.
func TestRetryAfterOn429(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, &wire.Error{Code: wire.CodeOverloaded,
		Status: http.StatusTooManyRequests, Message: "full"})
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 response carries no Retry-After header")
	}
	rec = httptest.NewRecorder()
	writeError(rec, degradedError("x"))
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 degraded response carries no Retry-After header")
	}
	rec = httptest.NewRecorder()
	writeError(rec, badRequest("x"))
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("400 response must not carry Retry-After")
	}
}
