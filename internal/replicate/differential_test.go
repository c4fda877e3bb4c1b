package replicate_test

// Differential tests at the subsystem boundary: a real primary server, real
// followers over HTTP, and the bit-identical-state guarantee the order-based
// engine's determinism promises. External test package so it can drive
// internal/server (which imports replicate) without a cycle.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kcore"
	"kcore/internal/persist"
	"kcore/internal/replicate"
	"kcore/internal/server"
)

// churnScript builds a valid mixed add/remove batch sequence on the vertex
// block [base, base+span), tracking its own edge history like the server
// differential test's generator.
func churnScript(base, batches, batchSize int, seed uint64) []kcore.Batch {
	const span = 64
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	present := map[[2]int]bool{}
	var presentList [][2]int
	out := make([]kcore.Batch, 0, batches)
	for b := 0; b < batches; b++ {
		batch := make(kcore.Batch, 0, batchSize)
		for len(batch) < batchSize {
			if len(presentList) > 0 && rng.Float64() < 0.35 {
				i := rng.IntN(len(presentList))
				e := presentList[i]
				presentList[i] = presentList[len(presentList)-1]
				presentList = presentList[:len(presentList)-1]
				delete(present, e)
				batch = append(batch, kcore.Remove(e[0], e[1]))
				continue
			}
			u, v := base+rng.IntN(span), base+rng.IntN(span)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if present[[2]int{u, v}] {
				continue
			}
			present[[2]int{u, v}] = true
			presentList = append(presentList, [2]int{u, v})
			batch = append(batch, kcore.Add(u, v))
		}
		out = append(out, batch)
	}
	return out
}

// indexOf captures an engine's full replicated identity.
func indexOf(t *testing.T, e *kcore.Engine) *kcore.IndexState {
	return e.Index()
}

// sameState asserts bit-identical replicated state: seq, vertex space, core
// numbers, the maintained k-order, and the edge SET (the Edges slice order
// is an iteration artifact, not state — sort before comparing).
func sameState(t *testing.T, name string, got, want *kcore.IndexState) {
	t.Helper()
	if got.Seq != want.Seq || got.Vertices != want.Vertices {
		t.Fatalf("%s: seq/vertices = %d/%d, want %d/%d", name, got.Seq, got.Vertices, want.Seq, want.Vertices)
	}
	if !slices.Equal(got.Cores, want.Cores) {
		t.Fatalf("%s: core numbers diverged at seq %d", name, want.Seq)
	}
	if !slices.Equal(got.Order, want.Order) {
		t.Fatalf("%s: maintained k-order diverged at seq %d", name, want.Seq)
	}
	ge := slices.Clone(got.Edges)
	we := slices.Clone(want.Edges)
	cmp := func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	}
	slices.SortFunc(ge, cmp)
	slices.SortFunc(we, cmp)
	if !slices.Equal(ge, we) {
		t.Fatalf("%s: edge sets diverged at seq %d (%d vs %d edges)", name, want.Seq, len(ge), len(we))
	}
}

// waitSeq blocks until the follower's engine reaches seq.
func waitSeq(t *testing.T, f *replicate.Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for f.Engine().Seq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d (stats %+v)", f.Engine().Seq(), seq, f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicationDifferential runs one primary and two followers under
// concurrent multi-writer churn, severing one follower's connection
// mid-stream. Both followers must converge to the primary's state
// bit-identically — edges, core numbers, AND the maintained k-order (the
// strongest equality the engine offers), with no gap-forced re-bootstraps.
func TestReplicationDifferential(t *testing.T) {
	engine := kcore.NewEngine()
	pub := replicate.NewPublisher(engine, replicate.PublisherOptions{})
	defer pub.Close()
	srv := server.New(engine, server.Options{Publisher: pub})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Preload before the followers exist: shipped via snapshot bootstrap.
	if _, err := engine.Apply(churnScript(0, 1, 200, 1)[0]); err != nil {
		t.Fatalf("preload: %v", err)
	}

	ctx := context.Background()
	var followers []*replicate.Follower
	for i := 0; i < 2; i++ {
		f, err := replicate.StartFollower(ctx, ts.URL, replicate.FollowerOptions{
			PollInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartFollower %d: %v", i, err)
		}
		defer f.Close()
		followers = append(followers, f)
	}

	// Concurrent writers on private vertex blocks; halfway through, sever
	// follower 0's stream so it must reconnect and resume.
	const writers = 3
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	var once sync.Once
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			script := churnScript(100+w*64, 40, 25, uint64(w)+2)
			for i, b := range script {
				if _, err := engine.Apply(b); err != nil {
					errs <- fmt.Errorf("writer %d batch %d: %w", w, i, err)
					return
				}
				if w == 0 && i == len(script)/2 {
					once.Do(followers[0].DropConnection)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One batch of 400 updates, none of which coalesce: it removes 100
	// present edges and adds a 25-clique on fresh vertices. That is above
	// the engine's 256-update floor and its 0.15·(m+n) fraction, so the
	// primary applies it, and the followers replay its frame, by wholesale
	// recomputation, whose k-order can differ from per-update maintenance's.
	var big kcore.Batch
	for _, ed := range engine.Edges()[:100] {
		big = append(big, kcore.Remove(ed[0], ed[1]))
	}
	for u := 400; u < 425; u++ {
		for v := u + 1; v < 425; v++ {
			big = append(big, kcore.Add(u, v))
		}
	}
	info, err := engine.Apply(big)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recomputed {
		t.Fatalf("batch of %d surviving updates was not recomputed", info.Applied)
	}

	final := engine.Seq()
	want := indexOf(t, engine)
	for i, f := range followers {
		waitSeq(t, f, final)
		sameState(t, fmt.Sprintf("follower %d", i), indexOf(t, f.Engine()), want)
		st := f.Stats()
		if st.Gaps != 0 {
			t.Fatalf("follower %d hit %d gaps; a severed stream must resume, not re-bootstrap (stats %+v)", i, st.Gaps, st)
		}
		if st.SeqLag != 0 || st.AppliedSeq != final {
			t.Fatalf("follower %d lag = %+v, want caught up at %d", i, st, final)
		}
	}
	// The severed follower reconnected: either a seamless resume or (if the
	// drop raced the first frames) a clean snapshot re-bootstrap — but it
	// must have gone through the reconnect path.
	if st := followers[0].Stats(); st.Reconnects == 0 {
		t.Fatalf("severed follower never reconnected: %+v", st)
	}

	// The primary served two bootstraps and saw the reconnect.
	ps := pub.Stats()
	if ps.Bootstraps < 2 || ps.HeadSeq != final {
		t.Fatalf("publisher stats = %+v, want >=2 bootstraps at head %d", ps, final)
	}
}

// TestFollowerCloseReleasesConnections: once Close returns, the follower
// holds no connection to the primary. A kept-alive healthz connection, or
// one a cancelled poll dialed but never used, would otherwise keep the
// primary's graceful shutdown waiting.
func TestFollowerCloseReleasesConnections(t *testing.T) {
	engine := kcore.NewEngine()
	pub := replicate.NewPublisher(engine, replicate.PublisherOptions{})
	defer pub.Close()
	srv := server.New(engine, server.Options{Publisher: pub})
	defer srv.Shutdown(context.Background())
	var open, polls atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			polls.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	defer ts.Close()

	f, err := replicate.StartFollower(context.Background(), ts.URL,
		replicate.FollowerOptions{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for polls.Load() < 3 {
		if time.Now().After(deadline) {
			f.Close()
			t.Fatalf("follower polled the primary %d times, want 3", polls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	f.Close()
	deadline = time.Now().Add(5 * time.Second)
	for open.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connection(s) still open at the primary after Close", open.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerGapReBootstrap drives the follower against a scripted fake
// primary whose stream jumps a sequence range. The follower must refuse the
// non-chaining frame, poison the connection, and re-bootstrap from a fresh
// snapshot — never silently diverge.
func TestFollowerGapReBootstrap(t *testing.T) {
	// Real engine states for the two bootstraps the fake primary serves.
	e := kcore.NewEngine()
	if _, err := e.Apply(kcore.Batch{kcore.Add(0, 1), kcore.Add(1, 2), kcore.Add(0, 2)}); err != nil {
		t.Fatal(err)
	}
	snapEarly, err := persist.EncodeSnapshot(indexOf(t, e)) // seq 3
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(kcore.Batch{kcore.Add(2, 3), kcore.Add(3, 4), kcore.Add(2, 4)}); err != nil {
		t.Fatal(err)
	}
	snapFull, err := persist.EncodeSnapshot(indexOf(t, e)) // seq 6
	if err != nil {
		t.Fatal(err)
	}

	// A frame claiming seqs 5..6 cannot chain onto a follower at seq 3.
	gapFrame, err := persist.AppendWALFrame(nil, kcore.AppliedBatch{
		Seq: 6, Updates: []kcore.Update{kcore.Add(3, 4), kcore.Add(2, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var connects int
	var resumeAsked []bool
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replicate" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		connects++
		n := connects
		resumeAsked = append(resumeAsked, r.URL.Query().Has("from"))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		var out []byte
		switch n {
		case 1:
			// Bootstrap at seq 3, then a stream with a hole in it.
			out = replicate.AppendBootstrap(nil, snapEarly)
			out = persist.AppendWALHeader(out)
			out = append(out, gapFrame...)
		default:
			// The re-bootstrap must carry the full state.
			out = replicate.AppendBootstrap(nil, snapFull)
			out = persist.AppendWALHeader(out)
		}
		_, _ = w.Write(out)
		w.(http.Flusher).Flush()
		<-r.Context().Done() // hold the stream open like a real primary
	}))
	defer primary.Close()

	f, err := replicate.StartFollower(context.Background(), primary.URL, replicate.FollowerOptions{
		ReconnectMin: 5 * time.Millisecond,
		PollInterval: time.Hour, // no healthz on the fake primary
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer f.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := f.Stats()
		if st.Gaps >= 1 && st.Bootstraps >= 2 && st.AppliedSeq == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-bootstrapped past the gap: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	sameState(t, "post-re-bootstrap", indexOf(t, f.Engine()), indexOf(t, e))
	mu.Lock()
	defer mu.Unlock()
	if len(resumeAsked) < 2 || resumeAsked[0] || resumeAsked[1] {
		t.Fatalf("connect resume flags = %v: the first connect and the post-gap "+
			"re-bootstrap must NOT ask to resume", resumeAsked)
	}
}

// TestFollowerReBootstrapKeepsEngine: a forced-gap re-bootstrap restores
// the shipped state into the follower's one engine. The apply probe and
// the subscription registered on it before the gap keep firing, and the
// subscription's events turn the old cores into the new ones.
func TestFollowerReBootstrapKeepsEngine(t *testing.T) {
	e := kcore.NewEngine()
	apply := func(b kcore.Batch) []byte {
		t.Helper()
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
		snap, err := persist.EncodeSnapshot(indexOf(t, e))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snapEarly := apply(kcore.Batch{kcore.Add(0, 1), kcore.Add(1, 2), kcore.Add(0, 2)}) // seq 3
	snapFull := apply(kcore.Batch{kcore.Add(2, 3), kcore.Add(3, 4), kcore.Add(2, 4)})  // seq 6
	apply(kcore.Batch{kcore.Add(4, 5)})                                                // seq 7
	gapFrame, err := persist.AppendWALFrame(nil, kcore.AppliedBatch{
		Seq: 6, Updates: []kcore.Update{kcore.Add(3, 4), kcore.Add(2, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	nextFrame, err := persist.AppendWALFrame(nil, kcore.AppliedBatch{
		Seq: 7, Updates: []kcore.Update{kcore.Add(4, 5)},
	})
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	var mu sync.Mutex
	var connects int
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replicate" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		connects++
		n := connects
		mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		if n == 1 {
			// Bootstrap at seq 3; the hole comes once the test is ready.
			_, _ = w.Write(persist.AppendWALHeader(replicate.AppendBootstrap(nil, snapEarly)))
			w.(http.Flusher).Flush()
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
			_, _ = w.Write(gapFrame)
		} else {
			out := persist.AppendWALHeader(replicate.AppendBootstrap(nil, snapFull))
			_, _ = w.Write(append(out, nextFrame...))
		}
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer primary.Close()

	f, err := replicate.StartFollower(context.Background(), primary.URL, replicate.FollowerOptions{
		ReconnectMin: 5 * time.Millisecond,
		PollInterval: time.Hour, // no healthz on the fake primary
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer f.Close()
	eng := f.Engine()
	old := eng.Cores()
	var probed atomic.Int64
	eng.SetApplyProbe(func(int) { probed.Add(1) })
	events, cancel := eng.Subscribe(kcore.WithBuffer(64))
	defer cancel()
	close(release)

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := f.Stats()
		if st.Gaps >= 1 && st.Bootstraps >= 2 && st.AppliedSeq == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-bootstrapped past the gap: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.Engine() != eng {
		t.Fatal("the re-bootstrap replaced the follower's engine")
	}
	if n := probed.Load(); n != 1 {
		t.Fatalf("apply probe fired %d times, want once for the frame after the re-bootstrap", n)
	}
	sameState(t, "post-re-bootstrap", indexOf(t, eng), indexOf(t, e))
	// The epoch is published before the hooks run, so the last events may
	// trail the seq the stats report.
	want := e.Cores()
	cores := append(slices.Clone(old), make([]int, len(want)-len(old))...)
	for !slices.Equal(cores, want) {
		select {
		case ev := <-events:
			if cores[ev.Vertex] != ev.OldCore {
				t.Fatalf("event %+v, but the vertex's core was %d", ev, cores[ev.Vertex])
			}
			cores[ev.Vertex] = ev.NewCore
		case <-time.After(5 * time.Second):
			t.Fatalf("subscription events turned %v into %v, want %v", old, cores, want)
		}
	}
	if len(events) > 0 {
		t.Fatalf("%d events beyond the new cores", len(events))
	}
}

// TestFollowerSeqLagFollowsReBootstrap: a primary that lost unsynced
// batches ships a seq-6 snapshot and a frame that cannot chain onto it,
// then, on the follower's re-bootstrap, a seq-3 snapshot, and its healthz
// answers 3. The follower applied everything the primary still has, so
// seq_lag must fall to 0 rather than wait for the primary to pass seq 6.
func TestFollowerSeqLagFollowsReBootstrap(t *testing.T) {
	e := kcore.NewEngine()
	snapshot := func(b kcore.Batch) []byte {
		t.Helper()
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
		snap, err := persist.EncodeSnapshot(indexOf(t, e))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snapEarly := snapshot(kcore.Batch{kcore.Add(0, 1), kcore.Add(1, 2), kcore.Add(0, 2)}) // seq 3
	snapLost := snapshot(kcore.Batch{kcore.Add(2, 3), kcore.Add(3, 4), kcore.Add(2, 4)})  // seq 6
	// Seqs 8..9 cannot chain onto a follower at seq 6.
	gapFrame, err := persist.AppendWALFrame(nil, kcore.AppliedBatch{
		Seq: 9, Updates: []kcore.Update{kcore.Add(4, 5), kcore.Add(5, 6)},
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var connects int
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz":
			_, _ = w.Write([]byte(`{"status":"ok","mode":"read_write","seq":3}`))
			return
		case "/v1/replicate":
		default:
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		connects++
		n := connects
		mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		if n == 1 {
			_, _ = w.Write(append(persist.AppendWALHeader(replicate.AppendBootstrap(nil, snapLost)), gapFrame...))
		} else {
			_, _ = w.Write(persist.AppendWALHeader(replicate.AppendBootstrap(nil, snapEarly)))
		}
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer primary.Close()

	f, err := replicate.StartFollower(context.Background(), primary.URL, replicate.FollowerOptions{
		ReconnectMin: 5 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer f.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Stats()
		if st.Gaps >= 1 && st.Bootstraps >= 2 && st.AppliedSeq == 3 && st.SeqLag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seq_lag never fell to 0 after the re-bootstrap onto seq 3: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerRejectsCorruptStream: a fake primary whose frame bytes are
// corrupted mid-stream must poison the connection (gap counted), not crash
// or apply garbage.
func TestFollowerRejectsCorruptStream(t *testing.T) {
	e := kcore.NewEngine()
	if _, err := e.Apply(kcore.Batch{kcore.Add(0, 1), kcore.Add(1, 2)}); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.EncodeSnapshot(indexOf(t, e))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := persist.AppendWALFrame(nil, kcore.AppliedBatch{
		Seq: 3, Updates: []kcore.Update{kcore.Add(0, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xff

	var mu sync.Mutex
	var connects int
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replicate" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		connects++
		n := connects
		mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		out := replicate.AppendBootstrap(nil, snap)
		out = persist.AppendWALHeader(out)
		if n == 1 {
			out = append(out, corrupt...)
		} else {
			out = append(out, frame...)
		}
		_, _ = w.Write(out)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer primary.Close()

	f, err := replicate.StartFollower(context.Background(), primary.URL, replicate.FollowerOptions{
		ReconnectMin: 5 * time.Millisecond,
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer f.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := f.Stats()
		if st.Gaps >= 1 && st.AppliedSeq == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never recovered from the corrupt frame: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
