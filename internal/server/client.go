package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kcore/internal/fault"
	"kcore/internal/persist"
	"kcore/internal/server/wire"
)

// RetryPolicy controls the client's automatic retry of transient
// rejections. Only responses whose retry is provably safe are retried:
// 429 "overloaded" and 503 "degraded", where the server rejected the
// request before applying anything. "shutting_down" (the server is going
// away) and "persistence_failed" (the batch DID apply; a retry would
// double-apply) are never retried. The server's Retry-After header, when
// present, overrides the computed backoff delay (capped at Backoff.Max).
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first
	// (default 4; 1 disables retries).
	Attempts int
	// Backoff is the jittered exponential delay envelope between tries
	// (default 50ms min, 1s max). The zero value selects the defaults.
	Backoff fault.Backoff
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.Backoff.Min <= 0 {
		p.Backoff.Min = 50 * time.Millisecond
	}
	if p.Backoff.Max <= 0 {
		p.Backoff.Max = time.Second
	}
	return p
}

// Client is the in-process Go client for kcore-serve. It speaks exactly the
// wire protocol over a standard http.Client, so it exercises the real HTTP
// surface (routing, serialization, status mapping) — the server's tests and
// the CI end-to-end smoke drive the service through it.
//
// The graph-scoped calls (Batch, Cores, Watch, ...) exist in two forms:
// scoped to a named tenant through Tenant(name), or directly on Client,
// where they hit the legacy unscoped /v1 routes — exact aliases for the
// "default" tenant. The direct forms are TenantClient's methods, promoted
// from the default-tenant view a Client embeds (so Client.Name reports
// "default"); they are kept for pre-tenant callers, and new multi-tenant
// code should scope explicitly.
type Client struct {
	defaultView

	base string
	hc   *http.Client

	// Retry is the transient-rejection retry policy. NewClient installs
	// the default policy; set it to nil to fail fast on 429/503 instead.
	Retry *RetryPolicy
	// Binary makes the client prefer the binary wire protocol: batch
	// bodies and acknowledgements as application/x-kcore-batch, the cores
	// dump as application/x-kcore-cores, and watch streams as
	// application/x-kcore-events. A server that answers 415 (an older
	// build) makes the client fall back to JSON for the rest of its
	// lifetime, so Binary is always safe to set.
	Binary bool

	// binaryOff remembers a 415 from the server: the binary protocol is
	// not spoken there, so later calls go straight to JSON.
	binaryOff atomic.Bool
}

// BaseURL reports the normalized base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// NewClient builds a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). hc may be nil to use http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("server client: invalid base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("server client: base URL %q needs a scheme and host", baseURL)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	pol := RetryPolicy{}.withDefaults()
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: hc, Retry: &pol}
	c.defaultView = TenantClient{c: c, name: "default", prefix: "/v1"}
	return c, nil
}

// defaultView is the Client's embedded view of the default tenant, behind
// the unscoped /v1 aliases. The alias keeps the embedded field unexported.
type defaultView = TenantClient

// TenantClient is a Client view scoped to one tenant: its calls hit the
// /v1/t/{tenant}/... routes and share the parent client's connection,
// retry policy, and binary-protocol negotiation state. Build one with
// Client.Tenant; the zero value is not usable.
type TenantClient struct {
	c      *Client
	name   string
	prefix string // "/v1/t/<name>" (escaped), or "/v1" for the legacy view
}

// Tenant returns a view of the client scoped to the named tenant. The
// tenant need not exist yet — the first Batch/AddEdges call creates it
// (reads of a never-written tenant fail with code "unknown_tenant").
func (c *Client) Tenant(name string) *TenantClient {
	return &TenantClient{c: c, name: name, prefix: "/v1/t/" + url.PathEscape(name)}
}

// Name reports the tenant this view is scoped to.
func (tc *TenantClient) Name() string { return tc.name }

// Batch applies a mixed update batch via POST .../batch. A non-2xx response
// is returned as a *wire.Error (branch on its Code and Status). With Binary
// set, the batch travels as a binary frame (falling back to JSON once if
// the server answers 415).
func (tc *TenantClient) Batch(ctx context.Context, updates []wire.Update) (*wire.BatchResponse, error) {
	if tc.c.useBinary() {
		resp, err := tc.batchBinary(ctx, updates)
		if !tc.c.fellBack(err) {
			return resp, err
		}
	}
	var resp wire.BatchResponse
	err := tc.c.do(ctx, http.MethodPost, tc.prefix+"/batch", wire.BatchRequest{Updates: updates}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// useBinary reports whether the binary protocol should be attempted.
func (c *Client) useBinary() bool { return c.Binary && !c.binaryOff.Load() }

// fellBack inspects a binary-protocol error: a 415 flips the client to
// JSON permanently and asks the caller to retry the JSON way.
func (c *Client) fellBack(err error) bool {
	var we *wire.Error
	if errors.As(err, &we) && we.Code == wire.CodeUnsupportedMedia {
		c.binaryOff.Store(true)
		return true
	}
	return false
}

// batchBinary issues POST .../batch with a binary frame body and a binary
// acknowledgement response.
func (tc *TenantClient) batchBinary(ctx context.Context, updates []wire.Update) (*wire.BatchResponse, error) {
	batch, werr := toBatch(updates)
	if werr != nil {
		return nil, werr
	}
	frame, err := persist.AppendBatchFrame(nil, batch)
	if err != nil {
		return nil, fmt.Errorf("server client: encode batch frame: %w", err)
	}
	var resp wire.BatchResponse
	if err := tc.c.exchange(ctx, http.MethodPost, tc.prefix+"/batch", frame,
		wire.ContentTypeBatch, wire.ContentTypeBatch, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Cores fetches the full core-number dump via GET .../cores (binary when
// the client prefers it, JSON otherwise).
func (tc *TenantClient) Cores(ctx context.Context) (*wire.CoresResponse, error) {
	var resp wire.CoresResponse
	if tc.c.useBinary() {
		err := tc.c.exchange(ctx, http.MethodGet, tc.prefix+"/cores", nil, "", wire.ContentTypeCores, &resp)
		if !tc.c.fellBack(err) {
			if err != nil {
				return nil, err
			}
			return &resp, nil
		}
	}
	if err := tc.c.exchange(ctx, http.MethodGet, tc.prefix+"/cores", nil, "", wire.ContentTypeJSON, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SnapshotExport fetches a KCORSNAP image of the tenant's current state via
// GET .../snapshot/export. The image loads with persist.ReadSnapshot.
func (tc *TenantClient) SnapshotExport(ctx context.Context) ([]byte, error) {
	var raw []byte
	if err := tc.c.exchange(ctx, http.MethodGet, tc.prefix+"/snapshot/export", nil, "",
		wire.ContentTypeSnapshot, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// AddEdges applies a pure-insertion batch.
func (tc *TenantClient) AddEdges(ctx context.Context, edges [][2]int) (*wire.BatchResponse, error) {
	updates := make([]wire.Update, len(edges))
	for i, e := range edges {
		updates[i] = wire.Update{Op: wire.OpAdd, U: e[0], V: e[1]}
	}
	return tc.Batch(ctx, updates)
}

// RemoveEdges applies a pure-removal batch.
func (tc *TenantClient) RemoveEdges(ctx context.Context, edges [][2]int) (*wire.BatchResponse, error) {
	updates := make([]wire.Update, len(edges))
	for i, e := range edges {
		updates[i] = wire.Update{Op: wire.OpRemove, U: e[0], V: e[1]}
	}
	return tc.Batch(ctx, updates)
}

// Core fetches one vertex's core number.
func (tc *TenantClient) Core(ctx context.Context, v int) (*wire.CoreResponse, error) {
	var resp wire.CoreResponse
	if err := tc.c.do(ctx, http.MethodGet, tc.prefix+"/core/"+strconv.Itoa(v), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// KCore fetches the vertices of the k-core.
func (tc *TenantClient) KCore(ctx context.Context, k int) (*wire.KCoreResponse, error) {
	var resp wire.KCoreResponse
	if err := tc.c.do(ctx, http.MethodGet, tc.prefix+"/kcore?k="+strconv.Itoa(k), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the tenant's stats snapshot.
func (tc *TenantClient) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	var resp wire.StatsResponse
	if err := tc.c.do(ctx, http.MethodGet, tc.prefix+"/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Snapshot asks the server to write a durability snapshot of the tenant and
// compact its WAL now (POST .../snapshot). Tenants running without
// persistence answer with a *wire.Error carrying code "no_persistence".
func (tc *TenantClient) Snapshot(ctx context.Context) (*wire.SnapshotResponse, error) {
	var resp wire.SnapshotResponse
	if err := tc.c.do(ctx, http.MethodPost, tc.prefix+"/snapshot", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health fetches the liveness probe.
func (c *Client) Health(ctx context.Context) (*wire.HealthResponse, error) {
	var resp wire.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Tenants lists every tenant the server knows — resident or cold on disk —
// with lifecycle state and the manager's admission counters.
func (c *Client) Tenants(ctx context.Context) (*wire.TenantsResponse, error) {
	var resp wire.TenantsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EvictTenant evicts one tenant from residency (DELETE /v1/t/{name}):
// durable tenants are snapshotted and closed, memory-only tenants lose
// their graph. Evicting an already-cold durable tenant succeeds.
func (c *Client) EvictTenant(ctx context.Context, name string) (*wire.EvictResponse, error) {
	var resp wire.EvictResponse
	if err := c.do(ctx, http.MethodDelete, "/v1/t/"+url.PathEscape(name), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// do issues one JSON exchange, retrying safely-retryable rejections per
// the client's RetryPolicy.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var data []byte
	contentType := ""
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return fmt.Errorf("server client: marshal request: %w", err)
		}
		contentType = wire.ContentTypeJSON
	}
	return c.exchange(ctx, method, path, data, contentType, "", out)
}

// exchange issues one request/response exchange in the given encodings,
// retrying safely-retryable rejections per the client's RetryPolicy. The
// request body is rebuilt from data on every attempt.
func (c *Client) exchange(ctx context.Context, method, path string, data []byte, contentType, accept string, out any) error {
	if c.Retry == nil {
		return c.doOnce(ctx, method, path, data, contentType, accept, out)
	}
	pol := c.Retry.withDefaults()
	bo := pol.Backoff
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, method, path, data, contentType, accept, out)
		var we *wire.Error
		if err == nil || attempt >= pol.Attempts ||
			!errors.As(err, &we) || !retryable(we) {
			return err
		}
		delay := bo.Next()
		if we.RetryAfter > 0 {
			// The server's explicit pacing hint wins, bounded by the
			// policy's envelope so a bogus header cannot park the caller.
			delay = min(we.RetryAfter, pol.Backoff.Max)
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return err
		}
	}
}

// retryable reports whether a wire error is provably safe to retry: the
// server rejected the request without applying it.
func retryable(we *wire.Error) bool {
	return we.Code == wire.CodeOverloaded || we.Code == wire.CodeDegraded
}

// doOnce issues one request/response exchange. Non-2xx responses always
// decode the JSON error envelope into a *wire.Error (the server serves
// errors as JSON regardless of negotiation); 2xx bodies decode by the
// response's Content-Type.
func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, contentType, accept string, out any) error {
	var body io.Reader
	if contentType != "" {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("server client: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("server client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var envelope wire.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == nil {
			return fmt.Errorf("server client: %s %s: HTTP %d (unparseable error body)",
				method, path, resp.StatusCode)
		}
		envelope.Error.Status = resp.StatusCode
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			envelope.Error.RetryAfter = time.Duration(secs) * time.Second
		}
		return envelope.Error
	}
	return decodeResponse(resp, method, path, out)
}

// decodeResponse decodes one 2xx body by its Content-Type.
func decodeResponse(resp *http.Response, method, path string, out any) error {
	if raw, ok := out.(*[]byte); ok {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("server client: %s %s: read response: %w", method, path, err)
		}
		*raw = data
		return nil
	}
	ct := resp.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	switch ct {
	case wire.ContentTypeBatch:
		br, ok := out.(*wire.BatchResponse)
		if !ok {
			return fmt.Errorf("server client: %s %s: unexpected binary batch ack", method, path)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("server client: %s %s: read response: %w", method, path, err)
		}
		ack, err := wire.DecodeBatchAck(data)
		if err != nil {
			return fmt.Errorf("server client: %s %s: %w", method, path, err)
		}
		*br = *ack
		return nil
	case wire.ContentTypeCores:
		cr, ok := out.(*wire.CoresResponse)
		if !ok {
			return fmt.Errorf("server client: %s %s: unexpected binary cores dump", method, path)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("server client: %s %s: read response: %w", method, path, err)
		}
		seq, cores, err := wire.DecodeCoresDump(data)
		if err != nil {
			return fmt.Errorf("server client: %s %s: %w", method, path, err)
		}
		cr.Seq, cr.Cores = seq, cores
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("server client: %s %s: decode response: %w", method, path, err)
	}
	return nil
}

// WatchOptions configures a Watch stream.
type WatchOptions struct {
	// MinCore filters events to those touching core level MinCore or above.
	MinCore int
	// Buffer overrides the server-side subscription buffer (0 = server
	// default).
	Buffer int
}

// Event is one parsed SSE frame from a Watch stream. Exactly one of Hello,
// Change and Lagged is non-nil, matching Type.
type Event struct {
	Type   string
	Hello  *wire.HelloEvent
	Change *wire.ChangeEvent
	Lagged *wire.LaggedEvent
}

// Watch opens GET .../watch and parses the stream (SSE, or binary event
// frames when Binary is set) into events. The returned channel closes when
// the stream ends for any reason (server shutdown, network error, or ctx
// cancellation — cancel ctx to stop watching). The first event is always
// the "hello" frame.
func (tc *TenantClient) Watch(ctx context.Context, opts WatchOptions) (<-chan Event, error) {
	out, err := tc.watch(ctx, opts, tc.c.useBinary())
	if tc.c.fellBack(err) {
		out, err = tc.watch(ctx, opts, false)
	}
	return out, err
}

func (tc *TenantClient) watch(ctx context.Context, opts WatchOptions, binary bool) (<-chan Event, error) {
	q := url.Values{}
	if opts.MinCore > 0 {
		q.Set("min_core", strconv.Itoa(opts.MinCore))
	}
	if opts.Buffer > 0 {
		q.Set("buffer", strconv.Itoa(opts.Buffer))
	}
	path := tc.prefix + "/watch"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tc.c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("server client: %w", err)
	}
	accept := wire.ContentTypeSSE
	if binary {
		accept = wire.ContentTypeEvents
	}
	req.Header.Set("Accept", accept)
	resp, err := tc.c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("server client: watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var envelope wire.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == nil {
			return nil, fmt.Errorf("server client: watch: HTTP %d (unparseable error body)",
				resp.StatusCode)
		}
		envelope.Error.Status = resp.StatusCode
		return nil, envelope.Error
	}
	out := make(chan Event, 16)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		if binary {
			parseEventFrames(ctx, resp.Body, out)
		} else {
			parseSSE(ctx, resp.Body, out)
		}
	}()
	return out, nil
}

// parseEventFrames scans a binary watch stream into events until it ends or
// ctx is cancelled. Malformed frames end the stream (binary framing has no
// per-frame resynchronization point, unlike SSE's blank-line delimiter).
func parseEventFrames(ctx context.Context, r io.Reader, out chan<- Event) {
	br := bufio.NewReaderSize(r, 32*1024)
	for {
		f, err := wire.ReadEventFrame(br)
		if err != nil {
			return
		}
		var ev Event
		switch f.Type {
		case wire.FrameKeepalive:
			continue
		case wire.FrameHello:
			h := f.Hello
			ev = Event{Type: wire.EventHello, Hello: &h}
		case wire.FrameChange:
			c := f.Change
			ev = Event{Type: wire.EventChange, Change: &c}
		case wire.FrameLagged:
			l := f.Lagged
			ev = Event{Type: wire.EventLagged, Lagged: &l}
		}
		select {
		case out <- ev:
		case <-ctx.Done():
			return
		}
	}
}

// parseSSE scans an SSE byte stream into events until the stream ends or
// ctx is cancelled (the cancellation check matters when the consumer has
// stopped reading out: the send must not block forever). Unknown event
// types and malformed frames are skipped (forward compatibility).
func parseSSE(ctx context.Context, r io.Reader, out chan<- Event) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var event string
	var data []string
	flush := func() bool {
		defer func() { event = ""; data = data[:0] }()
		if event == "" || len(data) == 0 {
			return true
		}
		ev := Event{Type: event}
		// Multiple data: lines of one frame join with newlines, per the
		// SSE specification.
		payload := []byte(strings.Join(data, "\n"))
		var err error
		switch event {
		case wire.EventHello:
			ev.Hello = &wire.HelloEvent{}
			err = json.Unmarshal(payload, ev.Hello)
		case wire.EventChange:
			ev.Change = &wire.ChangeEvent{}
			err = json.Unmarshal(payload, ev.Change)
		case wire.EventLagged:
			ev.Lagged = &wire.LaggedEvent{}
			err = json.Unmarshal(payload, ev.Lagged)
		default:
			return true
		}
		if err != nil {
			return true
		}
		select {
		case out <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if !flush() {
				return
			}
		case strings.HasPrefix(line, ":"):
			// comment / keepalive
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			// Strip the field name and the single optional leading space —
			// nothing more, so payload bytes survive verbatim.
			d := strings.TrimPrefix(line, "data:")
			d = strings.TrimPrefix(d, " ")
			data = append(data, d)
		}
	}
}
