package replicate

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"kcore"
	"kcore/internal/persist"
)

// decodeFrames runs the returned backlog/queue frames through the real
// follower-side decoder and returns the record seqs.
func decodeFrames(t *testing.T, frames [][]byte) []kcore.AppliedBatch {
	t.Helper()
	buf := persist.AppendWALHeader(nil)
	for _, f := range frames {
		buf = append(buf, f...)
	}
	wr := persist.NewWALReader(bytes.NewReader(buf))
	var out []kcore.AppliedBatch
	for {
		rec, err := wr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decode published frame: %v", err)
		}
		out = append(out, rec)
	}
}

func apply(t *testing.T, e *kcore.Engine, updates ...kcore.Update) {
	t.Helper()
	if _, err := e.Apply(kcore.Batch(updates)); err != nil {
		t.Fatalf("apply: %v", err)
	}
}

// TestPublisherSnapshotBootstrap covers the fresh-subscriber path: a
// snapshot bootstrap at the current seq, then live frames chaining past it.
func TestPublisherSnapshotBootstrap(t *testing.T) {
	e, err := kcore.FromEdges([][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPublisher(e, PublisherOptions{})
	defer p.Close()

	sub, boot, err := p.Subscribe("test", 0, false)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer p.Unsubscribe(sub)
	if boot.Snapshot == nil || len(boot.Backlog) != 0 || boot.BacklogSeq != e.Seq() {
		t.Fatalf("fresh bootstrap = snapshot %v, %d backlog, seq %d; want snapshot at seq %d",
			boot.Snapshot != nil, len(boot.Backlog), boot.BacklogSeq, e.Seq())
	}
	st, err := persist.DecodeSnapshot(boot.Snapshot)
	if err != nil || st.Seq != e.Seq() {
		t.Fatalf("bootstrap snapshot: seq %d err %v, want seq %d", st.Seq, err, e.Seq())
	}

	apply(t, e, kcore.Add(2, 3), kcore.Add(3, 4))
	apply(t, e, kcore.Remove(0, 1))
	frames, lastSeq, _, err := sub.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	recs := decodeFrames(t, frames)
	if len(recs) != 2 || lastSeq != e.Seq() || recs[1].Seq != e.Seq() {
		t.Fatalf("live frames = %d recs up to %d, want 2 up to %d", len(recs), lastSeq, e.Seq())
	}
	if start := recs[0].Seq - uint64(len(recs[0].Updates)); start != st.Seq {
		t.Fatalf("first live frame starts at %d, snapshot at %d: bootstrap and stream must tile", start, st.Seq)
	}
	sub.MarkSent(lastSeq)

	stats := p.Stats()
	if stats.Bootstraps != 1 || stats.HeadSeq != e.Seq() || len(stats.Subscribers) != 1 {
		t.Fatalf("publisher stats = %+v", stats)
	}
	if s := stats.Subscribers[0]; s.SentSeq != e.Seq() || s.QueuedBytes != 0 {
		t.Fatalf("subscriber sent seq = %d with %d unread bytes, want %d with 0", s.SentSeq, s.QueuedBytes, e.Seq())
	}

	// At the head, Next returns a wait channel that the next append closes.
	frames, _, wait, err := sub.Next()
	if err != nil || len(frames) != 0 || wait == nil {
		t.Fatalf("Next at head = %d frames, wait %v, err %v; want a wait channel", len(frames), wait != nil, err)
	}
	apply(t, e, kcore.Add(4, 5))
	select {
	case <-wait:
	default:
		t.Fatal("append did not close the wait channel")
	}
}

// TestMemoryTailResume covers the reconnect path served from the in-memory
// history: the cursor placed at an exact frame boundary, at the head, and
// the snapshot fallback for a mid-frame resume point.
func TestMemoryTailResume(t *testing.T) {
	e := kcore.NewEngine()
	p := NewPublisher(e, PublisherOptions{})
	defer p.Close()
	apply(t, e, kcore.Add(0, 1))                  // seq 1
	apply(t, e, kcore.Add(1, 2))                  // seq 2
	apply(t, e, kcore.Add(2, 3), kcore.Add(3, 4)) // seq 4, frame covers 3..4

	sub, boot, err := p.Subscribe("resume", 2, true)
	if err != nil {
		t.Fatalf("Subscribe(resume 2): %v", err)
	}
	frames, lastSeq, _, err := sub.Next()
	p.Unsubscribe(sub)
	if boot.Snapshot != nil || len(boot.Backlog) != 0 || boot.BacklogSeq != 2 {
		t.Fatalf("boundary resume bootstrap = %+v, want none at seq 2", boot)
	}
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	recs := decodeFrames(t, frames)
	if len(recs) != 1 || recs[0].Seq != 4 || lastSeq != 4 {
		t.Fatalf("resume(2) frames = %+v up to %d, want the 3..4 frame", recs, lastSeq)
	}

	sub, boot, err = p.Subscribe("at-head", 4, true)
	if err != nil {
		t.Fatalf("Subscribe(resume 4): %v", err)
	}
	frames, _, _, err = sub.Next()
	p.Unsubscribe(sub)
	if boot.Snapshot != nil || len(boot.Backlog) != 0 || boot.BacklogSeq != 4 || len(frames) != 0 || err != nil {
		t.Fatalf("resume at head = %+v then %d frames (err %v), want nothing at seq 4", boot, len(frames), err)
	}

	// Seq 3 is inside the two-update frame: not a boundary of this lineage.
	sub, boot, err = p.Subscribe("mid-frame", 3, true)
	if err != nil {
		t.Fatalf("Subscribe(resume 3): %v", err)
	}
	p.Unsubscribe(sub)
	if boot.Snapshot == nil {
		t.Fatalf("mid-frame resume must fall back to a snapshot")
	}

	if st := p.Stats(); st.Resumes != 2 || st.Bootstraps != 1 {
		t.Fatalf("stats = %+v, want 2 resumes + 1 bootstrap", st)
	}
}

// TestEvictedHistoryFallsBackToSnapshot pins the gap behavior: a resume
// point the bounded history no longer covers yields a fresh snapshot, not a
// broken chain.
func TestEvictedHistoryFallsBackToSnapshot(t *testing.T) {
	e := kcore.NewEngine()
	p := NewPublisher(e, PublisherOptions{HistoryBytes: 1}) // evict every frame
	defer p.Close()
	for i := 0; i < 5; i++ {
		apply(t, e, kcore.Add(i, i+1))
	}
	sub, boot, err := p.Subscribe("gap", 1, true)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	p.Unsubscribe(sub)
	if boot.Snapshot == nil {
		t.Fatalf("evicted resume must fall back to a snapshot")
	}
	st, err := persist.DecodeSnapshot(boot.Snapshot)
	if err != nil || st.Seq != 5 {
		t.Fatalf("fallback snapshot at seq %d err %v, want 5", st.Seq, err)
	}
}

// TestWALFileResume covers the middle resume tier: history evicted, but the
// persist WAL on disk still chains the requested tail.
func TestWALFileResume(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{
		Init: func() (*kcore.Engine, error) { return kcore.NewEngine(), nil },
	})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	defer store.Close()
	e := store.Engine()
	p := NewPublisher(e, PublisherOptions{
		HistoryBytes: 1, // force every resume past the memory tier
		WALPath:      filepath.Join(dir, persist.WALFile),
	})
	defer p.Close()

	for i := 0; i < 6; i++ {
		apply(t, e, kcore.Add(i, i+1))
	}

	sub, boot, err := p.Subscribe("wal", 2, true)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	p.Unsubscribe(sub)
	if boot.Snapshot != nil {
		t.Fatalf("WAL-covered resume served a snapshot")
	}
	recs := decodeFrames(t, boot.Backlog)
	if len(recs) != 4 || recs[0].Seq != 3 || recs[3].Seq != 6 || boot.BacklogSeq != 6 {
		t.Fatalf("WAL resume backlog = %d recs (%v..), want seqs 3..6", len(recs), recs)
	}
	if st := p.Stats(); st.WALResumes != 1 {
		t.Fatalf("stats = %+v, want 1 WAL resume", st)
	}
}

// TestBackpressureDropsSubscriber pins the slow-follower contract: the
// history is every subscriber's send window. The newest frame is always
// kept, so a subscriber one batch behind reads it; a subscriber whose next
// unread frame was trimmed is dropped whole (partial frames would break the
// chain), Next reports ErrDropped, and the drop is counted once.
func TestBackpressureDropsSubscriber(t *testing.T) {
	e := kcore.NewEngine()
	p := NewPublisher(e, PublisherOptions{HistoryBytes: 1}) // keeps only the newest frame
	defer p.Close()
	slow, _, err := p.Subscribe("slow", 0, false)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer p.Unsubscribe(slow)
	apply(t, e, kcore.Add(0, 1))
	fast, _, err := p.Subscribe("fast", 1, true)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer p.Unsubscribe(fast)
	apply(t, e, kcore.Add(1, 2))

	if frames, lastSeq, _, err := fast.Next(); err != nil || len(frames) != 1 || lastSeq != 2 {
		t.Fatalf("one batch behind: Next = %d frames up to %d, err %v; want the newest frame", len(frames), lastSeq, err)
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := slow.Next(); !errors.Is(err, ErrDropped) {
			t.Fatalf("Next %d two batches behind = %v, want ErrDropped", i, err)
		}
	}
	if st := p.Stats(); st.Drops != 1 {
		t.Fatalf("stats = %+v, want 1 drop", st)
	}
}

// TestSubscribeAfterClose pins ErrClosed.
func TestSubscribeAfterClose(t *testing.T) {
	e := kcore.NewEngine()
	p := NewPublisher(e, PublisherOptions{})
	p.Close()
	if _, _, err := p.Subscribe("late", 0, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
	// The hook is removed: applying more batches must not touch the
	// publisher (would panic on a nil map write if it did).
	apply(t, e, kcore.Add(0, 1))
}
