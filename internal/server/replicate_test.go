package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/persist"
	"kcore/internal/replicate"
	"kcore/internal/server/wire"
)

// TestReadOnlyRejectsWrites pins the wire mapping of the -read-only mode:
// both mutating endpoints answer 403 read_only while every read keeps
// working against the engine's preloaded state.
func TestReadOnlyRejectsWrites(t *testing.T) {
	eng := kcore.NewEngine()
	if _, err := eng.Apply(kcore.Batch{kcore.Add(0, 1), kcore.Add(1, 2), kcore.Add(0, 2)}); err != nil {
		t.Fatalf("preload: %v", err)
	}
	_, c := newTestServer(t, eng, Options{ReadOnly: true})
	ctx := context.Background()

	if _, err := c.AddEdges(ctx, [][2]int{{3, 4}}); !isWireCode(err, wire.CodeReadOnly, http.StatusForbidden) {
		t.Fatalf("batch on read-only server: err = %v, want %s (403)", err, wire.CodeReadOnly)
	}
	if _, err := c.Snapshot(ctx); !isWireCode(err, wire.CodeReadOnly, http.StatusForbidden) {
		t.Fatalf("snapshot on read-only server: err = %v, want %s (403)", err, wire.CodeReadOnly)
	}

	core, err := c.Core(ctx, 1)
	if err != nil || core.Core != 2 {
		t.Fatalf("core(1) on read-only server = %+v, err %v; reads must keep working", core, err)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.Edges != 3 {
		t.Fatalf("stats on read-only server = %+v, err %v", st, err)
	}
	if st.Replication != nil {
		t.Fatalf("read-only without replication must not report a replication section: %+v", st.Replication)
	}
}

// TestReplicateWithoutPublisher pins the 409 on servers not running as a
// replication primary.
func TestReplicateWithoutPublisher(t *testing.T) {
	_, c := newTestServer(t, kcore.NewEngine(), Options{})
	resp, err := c.hc.Get(c.base + "/v1/replicate")
	if err != nil {
		t.Fatalf("GET /v1/replicate: %v", err)
	}
	defer resp.Body.Close()
	var envelope wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	if resp.StatusCode != http.StatusConflict || envelope.Error == nil || envelope.Error.Code != wire.CodeNoReplication {
		t.Fatalf("replicate without publisher = HTTP %d %+v, want 409 %s",
			resp.StatusCode, envelope.Error, wire.CodeNoReplication)
	}
}

// TestReplicateBadFrom pins the 400 on an unparsable resume point.
func TestReplicateBadFrom(t *testing.T) {
	eng := kcore.NewEngine()
	pub := replicate.NewPublisher(eng, replicate.PublisherOptions{})
	defer pub.Close()
	_, c := newTestServer(t, eng, Options{Publisher: pub})
	resp, err := c.hc.Get(c.base + "/v1/replicate?from=x")
	if err != nil {
		t.Fatalf("GET /v1/replicate?from=x: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replicate with bad from = HTTP %d, want 400", resp.StatusCode)
	}
}

// TestPrimaryFollowerEndToEnd drives the whole subsystem through the HTTP
// layer: a primary server with a publisher, a follower bootstrapped over
// /v1/replicate and serving reads from its replicated engine. It asserts
// convergence, the stats sections on both roles, and the follower's write
// rejection naming the primary.
func TestPrimaryFollowerEndToEnd(t *testing.T) {
	ctx := context.Background()
	eng := kcore.NewEngine()
	pub := replicate.NewPublisher(eng, replicate.PublisherOptions{})
	defer pub.Close()
	_, pc := newTestServer(t, eng, Options{Publisher: pub})

	// Writes before the follower exists: covered by the bootstrap snapshot.
	if _, err := pc.AddEdges(ctx, [][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatalf("primary ingest: %v", err)
	}

	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	fol, err := replicate.StartFollower(fctx, pc.base, replicate.FollowerOptions{
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer fol.Close()
	_, fc := newTestServer(t, fol.Engine(), Options{Follower: fol})

	// Writes after: covered by the live stream.
	if _, err := pc.AddEdges(ctx, [][2]int{{2, 3}, {3, 0}}); err != nil {
		t.Fatalf("primary ingest: %v", err)
	}

	waitFollowerCaughtUp(t, fc, 5)

	core, err := fc.Core(ctx, 3)
	if err != nil || core.Core != 2 {
		t.Fatalf("follower core(3) = %+v, err %v, want 2", core, err)
	}

	// Follower rejects writes, naming the primary.
	_, err = fc.AddEdges(ctx, [][2]int{{7, 8}})
	if !isWireCode(err, wire.CodeReadOnly, http.StatusForbidden) {
		t.Fatalf("write on follower: err = %v, want %s (403)", err, wire.CodeReadOnly)
	}
	var we *wire.Error
	if errors.As(err, &we) && !strings.Contains(we.Message, fol.Primary()) {
		t.Fatalf("follower read_only message %q does not name primary %q", we.Message, fol.Primary())
	}

	// Stats sections on both roles.
	fst, err := fc.Stats(ctx)
	if err != nil {
		t.Fatalf("follower stats: %v", err)
	}
	fr := fst.Replication
	if fr == nil || fr.Role != "follower" || fr.Follower == nil || fr.Primary != nil {
		t.Fatalf("follower replication stats = %+v, want follower role with follower section", fr)
	}
	if fr.Follower.Primary != fol.Primary() || !fr.Follower.Connected ||
		fr.Follower.AppliedSeq != 5 || fr.Follower.SeqLag != 0 ||
		fr.Follower.Bootstraps != 1 || fr.Follower.LastFrameUnixMS == 0 {
		t.Fatalf("follower replication section = %+v", fr.Follower)
	}

	pst, err := pc.Stats(ctx)
	if err != nil {
		t.Fatalf("primary stats: %v", err)
	}
	pr := pst.Replication
	if pr == nil || pr.Role != "primary" || pr.Primary == nil || pr.Follower != nil {
		t.Fatalf("primary replication stats = %+v, want primary role with primary section", pr)
	}
	if pr.Primary.HeadSeq != 5 || pr.Primary.Bootstraps != 1 || len(pr.Primary.Followers) != 1 {
		t.Fatalf("primary replication section = %+v", pr.Primary)
	}
	if f := pr.Primary.Followers[0]; f.SentSeq != 5 || f.SeqLag != 0 {
		t.Fatalf("primary's follower conn = %+v, want sent_seq 5, seq_lag 0", f)
	}
}

// TestWatchFollowsFollowerReBootstrap: a watch stream on a follower stays
// open across a forced-gap re-bootstrap and receives the re-bootstrap's
// core changes, since the follower restores into the engine it serves.
func TestWatchFollowsFollowerReBootstrap(t *testing.T) {
	ref := kcore.NewEngine()
	snapshot := func(b kcore.Batch) []byte {
		t.Helper()
		if _, err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
		snap, err := persist.EncodeSnapshot(ref.Index())
		if err != nil {
			t.Fatal(err)
		}
		return persist.AppendWALHeader(replicate.AppendBootstrap(nil, snap))
	}
	early := snapshot(kcore.Batch{kcore.Add(0, 1), kcore.Add(1, 2), kcore.Add(0, 2)}) // seq 3
	full := snapshot(kcore.Batch{kcore.Add(2, 3), kcore.Add(3, 4), kcore.Add(2, 4)})  // seq 6
	// A frame claiming seqs 5..6 cannot chain onto a follower at seq 3.
	gap, err := persist.AppendWALFrame(nil, kcore.AppliedBatch{
		Seq: 6, Updates: []kcore.Update{kcore.Add(3, 4), kcore.Add(2, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var connects atomic.Int64
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replicate" {
			http.NotFound(w, r)
			return
		}
		if connects.Add(1) == 1 {
			_, _ = w.Write(early)
			w.(http.Flusher).Flush()
			select {
			case <-release:
				_, _ = w.Write(gap)
			case <-r.Context().Done():
				return
			}
		} else {
			_, _ = w.Write(full)
		}
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer primary.Close()
	fol, err := replicate.StartFollower(context.Background(), primary.URL, replicate.FollowerOptions{
		ReconnectMin: 5 * time.Millisecond,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer fol.Close()
	const keepalive = 20 * time.Millisecond
	_, fc := newTestServer(t, fol.Engine(), Options{Follower: fol, Keepalive: keepalive})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := fc.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if ev := <-events; ev.Type != wire.EventHello || ev.Hello.Seq != 3 {
		t.Fatalf("first event = %+v, want hello at seq 3", ev)
	}
	close(release)

	// Vertices 3 and 4 arrive with the re-bootstrap, at core 2.
	var got []wire.ChangeEvent
	for len(got) < 2 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("watch stream ended after %+v", got)
			}
			if ev.Type == wire.EventChange {
				got = append(got, *ev.Change)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no re-bootstrap changes on the watch stream: got %+v, follower %+v", got, fol.Stats())
		}
	}
	want := []wire.ChangeEvent{{Vertex: 3, OldCore: 0, NewCore: 2, Seq: 6}, {Vertex: 4, OldCore: 0, NewCore: 2, Seq: 6}}
	if !slices.Equal(got, want) {
		t.Fatalf("watch got %+v, want %+v", got, want)
	}
	// Keepalive ticks leave the stream open.
	select {
	case ev, ok := <-events:
		t.Fatalf("after the re-bootstrap diff: event %+v, open %v", ev, ok)
	case <-time.After(5 * keepalive):
	}
}

// waitFollowerCaughtUp polls the follower's /v1/stats until it reports the
// target applied seq with zero lag.
func waitFollowerCaughtUp(t *testing.T, fc *Client, seq uint64) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := fc.Stats(ctx)
		if err == nil && st.Replication != nil && st.Replication.Follower != nil {
			f := st.Replication.Follower
			if f.AppliedSeq >= seq && f.SeqLag == 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			st, _ := fc.Stats(ctx)
			t.Fatalf("follower never caught up to seq %d: %+v", seq, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// isWireCode reports whether err is a wire error with the given code and
// HTTP status.
func isWireCode(err error, code string, status int) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == code && we.Status == status
}
