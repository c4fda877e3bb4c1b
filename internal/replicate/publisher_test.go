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
	e, err := kcore.FromEdges([][2]int{{0, 1}, {1, 2}}, kcore.WithSeed(3))
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
	<-sub.Notify()
	frames, lastSeq, err := sub.Next()
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
	if s := stats.Subscribers[0]; s.SentSeq != e.Seq() {
		t.Fatalf("subscriber sent seq = %d, want %d", s.SentSeq, e.Seq())
	}
}

// TestMemoryTailResume covers the reconnect path served from the in-memory
// history: exact frame-boundary tiling, empty tail at head, and the
// snapshot fallbacks for mid-frame or evicted resume points.
func TestMemoryTailResume(t *testing.T) {
	e := kcore.NewEngine(kcore.WithSeed(3))
	p := NewPublisher(e, PublisherOptions{})
	defer p.Close()
	apply(t, e, kcore.Add(0, 1))                  // seq 1
	apply(t, e, kcore.Add(1, 2))                  // seq 2
	apply(t, e, kcore.Add(2, 3), kcore.Add(3, 4)) // seq 4, frame covers 3..4

	sub, boot, err := p.Subscribe("resume", 2, true)
	if err != nil {
		t.Fatalf("Subscribe(resume 2): %v", err)
	}
	p.Unsubscribe(sub)
	if boot.Snapshot != nil {
		t.Fatalf("boundary resume served a snapshot")
	}
	recs := decodeFrames(t, boot.Backlog)
	if len(recs) != 1 || recs[0].Seq != 4 || boot.BacklogSeq != 4 {
		t.Fatalf("resume(2) backlog = %+v seq %d, want the 3..4 frame", recs, boot.BacklogSeq)
	}

	sub, boot, err = p.Subscribe("at-head", 4, true)
	if err != nil {
		t.Fatalf("Subscribe(resume 4): %v", err)
	}
	p.Unsubscribe(sub)
	if boot.Snapshot != nil || len(boot.Backlog) != 0 || boot.BacklogSeq != 4 {
		t.Fatalf("resume at head = %+v, want empty backlog at seq 4", boot)
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
	e := kcore.NewEngine(kcore.WithSeed(3))
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
		Init: func() (*kcore.Engine, error) { return kcore.NewEngine(kcore.WithSeed(3)), nil },
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

// TestBackpressureDropsSubscriber pins the slow-follower contract: queue
// overflow drops the whole subscriber (partial frames would break the
// chain), Next reports ErrDropped, and the drop is counted.
func TestBackpressureDropsSubscriber(t *testing.T) {
	e := kcore.NewEngine(kcore.WithSeed(3))
	p := NewPublisher(e, PublisherOptions{QueueBytes: 1})
	defer p.Close()
	sub, _, err := p.Subscribe("slow", 0, false)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer p.Unsubscribe(sub)

	apply(t, e, kcore.Add(0, 1))
	<-sub.Notify()
	if _, _, err := sub.Next(); !errors.Is(err, ErrDropped) {
		t.Fatalf("Next after overflow = %v, want ErrDropped", err)
	}
	if st := p.Stats(); st.Drops != 1 {
		t.Fatalf("stats = %+v, want 1 drop", st)
	}
}

// TestSubscribeAfterClose pins ErrClosed.
func TestSubscribeAfterClose(t *testing.T) {
	e := kcore.NewEngine(kcore.WithSeed(3))
	p := NewPublisher(e, PublisherOptions{})
	p.Close()
	if _, _, err := p.Subscribe("late", 0, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
	// The hook is removed: applying more batches must not touch the
	// publisher (would panic on a nil map write if it did).
	apply(t, e, kcore.Add(0, 1))
}
