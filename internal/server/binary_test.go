package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"kcore"
	"kcore/internal/persist"
	"kcore/internal/server/wire"
)

// binaryClient returns a second client for the same server with the binary
// protocol preference enabled.
func binaryClient(t *testing.T, c *Client) *Client {
	t.Helper()
	cb, err := NewClient(c.BaseURL(), nil)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	cb.Binary = true
	return cb
}

// TestContentNegotiation drives /v1/batch, /v1/cores and /v1/snapshot/export
// through every Content-Type/Accept combination the protocol defines: wrong
// media types get HTTP 415 with the stable wire code, and the Accept header
// selects the response framing.
func TestContentNegotiation(t *testing.T) {
	_, c := newTestServer(t, kcore.NewEngine(), Options{})

	// Each successful batch case adds a distinct edge (the engine rejects
	// duplicate adds with 409).
	next := 0
	jsonEdge := func() []byte {
		next += 2
		return fmt.Appendf(nil, `{"updates":[{"op":"add","u":%d,"v":%d}]}`, next, next+1)
	}
	binEdge := func() []byte {
		next += 2
		frame, err := persist.AppendBatchFrame(nil, []kcore.Update{kcore.Add(next, next+1)})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		accept      string
		body        []byte
		wantStatus  int
		wantCT      string // response Content-Type for 2xx
	}{
		{"batch json default", http.MethodPost, "/v1/batch", wire.ContentTypeJSON, "",
			jsonEdge(), http.StatusOK, wire.ContentTypeJSON},
		{"batch binary both ways", http.MethodPost, "/v1/batch", wire.ContentTypeBatch, wire.ContentTypeBatch,
			binEdge(), http.StatusOK, wire.ContentTypeBatch},
		{"batch binary in, json out", http.MethodPost, "/v1/batch", wire.ContentTypeBatch, "",
			binEdge(), http.StatusOK, wire.ContentTypeJSON},
		{"batch json in, binary ack", http.MethodPost, "/v1/batch", wire.ContentTypeJSON, wire.ContentTypeBatch,
			jsonEdge(), http.StatusOK, wire.ContentTypeBatch},
		{"batch charset parameter ok", http.MethodPost, "/v1/batch", "application/json; charset=utf-8", "",
			jsonEdge(), http.StatusOK, wire.ContentTypeJSON},
		{"batch wildcard accept", http.MethodPost, "/v1/batch", wire.ContentTypeJSON, "*/*",
			jsonEdge(), http.StatusOK, wire.ContentTypeJSON},
		{"batch wrong content type", http.MethodPost, "/v1/batch", "text/plain", "",
			jsonEdge(), http.StatusUnsupportedMediaType, ""},
		{"batch unsatisfiable accept", http.MethodPost, "/v1/batch", wire.ContentTypeJSON, "text/html",
			jsonEdge(), http.StatusUnsupportedMediaType, ""},
		{"cores default is binary", http.MethodGet, "/v1/cores", "", "",
			nil, http.StatusOK, wire.ContentTypeCores},
		{"cores json", http.MethodGet, "/v1/cores", "", wire.ContentTypeJSON,
			nil, http.StatusOK, wire.ContentTypeJSON},
		{"cores explicit binary", http.MethodGet, "/v1/cores", "", wire.ContentTypeCores,
			nil, http.StatusOK, wire.ContentTypeCores},
		{"cores wildcard", http.MethodGet, "/v1/cores", "", "*/*",
			nil, http.StatusOK, wire.ContentTypeCores},
		{"cores unsatisfiable accept", http.MethodGet, "/v1/cores", "", "text/html",
			nil, http.StatusUnsupportedMediaType, ""},
		{"export default", http.MethodGet, "/v1/snapshot/export", "", "",
			nil, http.StatusOK, wire.ContentTypeSnapshot},
		{"export unsatisfiable accept", http.MethodGet, "/v1/snapshot/export", "", wire.ContentTypeJSON,
			nil, http.StatusUnsupportedMediaType, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, c.BaseURL()+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (body %q)", resp.StatusCode, tc.wantStatus, body)
			}
			ct := resp.Header.Get("Content-Type")
			if tc.wantStatus == http.StatusOK {
				if base, _, _ := strings.Cut(ct, ";"); strings.TrimSpace(base) != tc.wantCT {
					t.Fatalf("Content-Type = %q, want %q", ct, tc.wantCT)
				}
				return
			}
			// Errors always come in the JSON envelope, whatever was negotiated.
			var envelope wire.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == nil {
				t.Fatalf("415 body not a wire error envelope: %v", err)
			}
			if envelope.Error.Code != wire.CodeUnsupportedMedia {
				t.Fatalf("error code = %q, want %q", envelope.Error.Code, wire.CodeUnsupportedMedia)
			}
		})
	}
}

// TestBatchBinaryMatchesJSON applies the same batch to two fresh servers,
// one over JSON and one over the binary protocol, and requires identical
// batch info in the acks.
func TestBatchBinaryMatchesJSON(t *testing.T) {
	updates := []wire.Update{
		{Op: wire.OpAdd, U: 0, V: 1}, {Op: wire.OpAdd, U: 1, V: 2},
		{Op: wire.OpAdd, U: 0, V: 2}, {Op: wire.OpAdd, U: 2, V: 3},
		{Op: wire.OpRemove, U: 2, V: 3}, {Op: wire.OpAdd, U: 3, V: 4},
	}
	ctx := context.Background()

	_, cj := newTestServer(t, kcore.NewEngine(), Options{})
	respJSON, err := cj.Batch(ctx, updates)
	if err != nil {
		t.Fatalf("json batch: %v", err)
	}

	_, c2 := newTestServer(t, kcore.NewEngine(), Options{})
	cb := binaryClient(t, c2)
	respBin, err := cb.Batch(ctx, updates)
	if err != nil {
		t.Fatalf("binary batch: %v", err)
	}
	if cb.binaryOff.Load() {
		t.Fatal("binary client fell back to JSON against a binary-capable server")
	}

	slices.Sort(respJSON.CoreChanged)
	slices.Sort(respBin.CoreChanged)
	if fmt.Sprintf("%+v", *respJSON) != fmt.Sprintf("%+v", *respBin) {
		t.Fatalf("batch info diverged:\n  json:   %+v\n  binary: %+v", *respJSON, *respBin)
	}
	// The add/remove pair on (2,3) cancels out in the coalescer: 4 applied.
	if respBin.Applied != 4 || respBin.Seq == 0 {
		t.Fatalf("implausible ack: %+v", *respBin)
	}
}

// TestCoresDumpMatchesEngine checks the bulk core dump against the engine
// in both framings.
func TestCoresDumpMatchesEngine(t *testing.T) {
	e := kcore.NewEngine()
	_, c := newTestServer(t, e, Options{})
	ctx := context.Background()
	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 300}}); err != nil {
		t.Fatal(err)
	}
	want := e.Cores()

	cb := binaryClient(t, c)
	for name, cl := range map[string]*Client{"json": c, "binary": cb} {
		resp, err := cl.Cores(ctx)
		if err != nil {
			t.Fatalf("%s cores: %v", name, err)
		}
		if resp.Seq != e.Seq() {
			t.Fatalf("%s cores seq = %d, want %d", name, resp.Seq, e.Seq())
		}
		if !slices.Equal(resp.Cores, want) {
			t.Fatalf("%s cores = %v, want %v", name, resp.Cores, want)
		}
	}
}

// TestSnapshotExportRoundTrip streams the KCORSNAP image and rebuilds an
// engine from it.
func TestSnapshotExportRoundTrip(t *testing.T) {
	e := kcore.NewEngine()
	_, c := newTestServer(t, e, Options{})
	ctx := context.Background()
	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}}); err != nil {
		t.Fatal(err)
	}
	data, err := c.SnapshotExport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := persist.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("exported image did not load: %v", err)
	}
	if restored.Seq() != e.Seq() {
		t.Fatalf("restored seq = %d, want %d", restored.Seq(), e.Seq())
	}
	if !slices.Equal(restored.Cores(), e.Cores()) {
		t.Fatalf("restored cores = %v, want %v", restored.Cores(), e.Cores())
	}
}

// TestWatchBinaryDeliversChanges runs one SSE watcher and one binary
// watcher side by side and requires the same event stream from both.
func TestWatchBinaryDeliversChanges(t *testing.T) {
	_, c := newTestServer(t, kcore.NewEngine(), Options{})
	cb := binaryClient(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	chJSON, err := c.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chBin, err := cb.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]<-chan Event{"sse": chJSON, "binary": chBin} {
		ev, ok := <-ch
		if !ok || ev.Type != wire.EventHello || ev.Hello == nil {
			t.Fatalf("%s: first event = %+v, want hello", name, ev)
		}
	}

	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatal(err)
	}

	collect := func(ch <-chan Event, n int) []wire.ChangeEvent {
		var got []wire.ChangeEvent
		for len(got) < n {
			select {
			case ev, ok := <-ch:
				if !ok {
					t.Fatalf("stream closed after %d changes, want %d", len(got), n)
				}
				if ev.Type == wire.EventChange {
					got = append(got, *ev.Change)
				}
			case <-ctx.Done():
				t.Fatalf("timed out after %d changes, want %d", len(got), n)
			}
		}
		return got
	}
	// First count what the SSE stream produced for this batch, then require
	// the binary stream to deliver exactly the same events.
	first := collect(chJSON, 1)
	// Drain any further changes that arrive promptly.
	deadline := time.After(500 * time.Millisecond)
drain:
	for {
		select {
		case ev, ok := <-chJSON:
			if !ok {
				break drain
			}
			if ev.Type == wire.EventChange {
				first = append(first, *ev.Change)
			}
		case <-deadline:
			break drain
		}
	}
	second := collect(chBin, len(first))
	if !slices.Equal(first, second) {
		t.Fatalf("streams diverged:\n  sse:    %+v\n  binary: %+v", first, second)
	}
}

// TestWatchEncodesOncePerEvent is the fan-out acceptance check: with many
// concurrent watchers in both framings, each change event is encoded exactly
// once per framing — the shared ring's encode counters equal the per-watcher
// event count, not watchers x events.
func TestWatchEncodesOncePerEvent(t *testing.T) {
	s, c := newTestServer(t, kcore.NewEngine(), Options{})
	cb := binaryClient(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	const watchers = 8 // per framing
	streams := make([]<-chan Event, 0, 2*watchers)
	for i := 0; i < watchers; i++ {
		chJ, err := c.Watch(ctx, WatchOptions{Buffer: 4096})
		if err != nil {
			t.Fatal(err)
		}
		chB, err := cb.Watch(ctx, WatchOptions{Buffer: 4096})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, chJ, chB)
	}
	for _, ch := range streams {
		if ev := <-ch; ev.Type != wire.EventHello {
			t.Fatalf("first event = %+v, want hello", ev)
		}
	}

	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}

	// Wait for the ring to quiesce: the feed goroutine appends after Apply
	// returns, so poll the encode counter until it stops moving.
	ring := s.def.hub.current()
	if ring == nil {
		t.Fatal("no active ring")
	}
	var events uint64
	for i := 0; i < 100; i++ {
		n := ring.encodedSSE.Load()
		if n > 0 && n == events {
			break
		}
		events = n
		time.Sleep(20 * time.Millisecond)
	}
	if events == 0 {
		t.Fatal("no events were encoded")
	}

	// Every watcher sees every event...
	for i, ch := range streams {
		var got uint64
		for got < events {
			select {
			case ev, ok := <-ch:
				if !ok {
					t.Fatalf("watcher %d: stream closed after %d/%d changes", i, got, events)
				}
				if ev.Type == wire.EventChange {
					got++
				}
			case <-ctx.Done():
				t.Fatalf("watcher %d: timed out after %d/%d changes", i, got, events)
			}
		}
	}
	// ...yet each event was encoded exactly once per framing.
	if n := ring.encodedSSE.Load(); n != events {
		t.Fatalf("SSE encodes = %d, want %d (one per event)", n, events)
	}
	if n := ring.encodedBin.Load(); n != events {
		t.Fatalf("binary encodes = %d, want %d (one per event)", n, events)
	}
}

// TestClientFallsBackOn415 aims a Binary client at a server that predates
// the binary protocol (stubbed: 415 for binary, JSON otherwise) and checks
// the permanent JSON fallback.
func TestClientFallsBackOn415(t *testing.T) {
	var binaryAttempts, jsonServed int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ct := r.Header.Get("Content-Type")
		if ct == wire.ContentTypeBatch || r.Header.Get("Accept") == wire.ContentTypeBatch {
			binaryAttempts++
			w.Header().Set("Content-Type", wire.ContentTypeJSON)
			w.WriteHeader(http.StatusUnsupportedMediaType)
			fmt.Fprintf(w, `{"error":{"code":%q,"message":"no binary here"}}`, wire.CodeUnsupportedMedia)
			return
		}
		jsonServed++
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
		fmt.Fprint(w, `{"seq":1,"applied":1,"flushed_with":1}`)
	}))
	defer stub.Close()

	c, err := NewClient(stub.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Binary = true
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		resp, err := c.Batch(ctx, []wire.Update{{Op: wire.OpAdd, U: 0, V: 1}})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if resp.Seq != 1 {
			t.Fatalf("batch %d: resp = %+v", i, resp)
		}
	}
	if binaryAttempts != 1 {
		t.Fatalf("binary attempts = %d, want 1 (fallback must be permanent)", binaryAttempts)
	}
	if jsonServed != 3 {
		t.Fatalf("json requests = %d, want 3", jsonServed)
	}
}
