package kcore

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// TestApplyHookObservesBatches: the hook sees every applied batch's
// surviving updates and final seq, in apply order, including coalescing and
// the single-update convenience paths.
func TestApplyHookObservesBatches(t *testing.T) {
	e := NewEngine()
	type logged struct {
		seq     uint64
		updates []Update
	}
	var log []logged
	e.SetApplyHook(func(rec AppliedBatch) error {
		log = append(log, logged{rec.Seq, slices.Clone(rec.Updates)})
		return nil
	})

	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// Batch with a self-annihilating pair: only survivors reach the hook.
	if _, err := e.Apply(Batch{Add(1, 2), Add(5, 6), Remove(1, 2), Add(0, 2)}); err != nil {
		t.Fatal(err)
	}
	// Fully coalesced batch: nothing applied, hook not called.
	if _, err := e.Apply(Batch{Add(7, 8), Remove(7, 8)}); err != nil {
		t.Fatal(err)
	}

	want := []logged{
		{1, []Update{Add(0, 1)}},
		{3, []Update{Add(5, 6), Add(0, 2)}},
	}
	if len(log) != len(want) {
		t.Fatalf("hook saw %d batches, want %d: %+v", len(log), len(want), log)
	}
	for i := range want {
		if log[i].seq != want[i].seq || !slices.Equal(log[i].updates, want[i].updates) {
			t.Fatalf("hook record %d = %+v, want %+v", i, log[i], want[i])
		}
	}
	if got := e.Seq(); got != 3 {
		t.Fatalf("seq = %d, want 3", got)
	}

	// Detach: further applies are unobserved.
	e.SetApplyHook(nil)
	if _, err := e.AddEdge(9, 10); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("detached hook still invoked: %d records", len(log))
	}
}

// TestApplyHookError: a failing hook surfaces as *HookError while the
// in-memory state (and subscribers) still advanced.
func TestApplyHookError(t *testing.T) {
	e := NewEngine()
	boom := errors.New("disk full")
	e.SetApplyHook(func(rec AppliedBatch) error { return boom })
	events, cancel := e.Subscribe()
	defer cancel()

	_, err := e.Apply(Batch{Add(0, 1)})
	var he *HookError
	if !errors.As(err, &he) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want *HookError wrapping the hook's error", err)
	}
	if !e.HasEdge(0, 1) || e.Seq() != 1 {
		t.Fatal("state must advance even when the hook fails")
	}
	select {
	case ev := <-events:
		if ev.Vertex != 0 && ev.Vertex != 1 {
			t.Fatalf("unexpected event %+v", ev)
		}
	default:
		t.Fatal("subscribers must be notified even when the hook fails")
	}
	// AddEdge wraps the cause but keeps the HookError visible to errors.As.
	_, err = e.AddEdge(3, 4)
	if !errors.As(err, &he) {
		t.Fatalf("AddEdge err = %v, want *HookError", err)
	}
}

// TestReplaySilent: Replay applies like Apply but fires neither subscriber
// events nor the hook, and seq continues seamlessly afterwards.
func TestReplaySilent(t *testing.T) {
	e := NewEngine()
	hooked := 0
	e.SetApplyHook(func(rec AppliedBatch) error { hooked++; return nil })
	events, cancel := e.Subscribe()
	defer cancel()

	info, err := e.Replay(Batch{Add(0, 1), Add(1, 2), Add(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Applied != 3 || info.Seq != 3 {
		t.Fatalf("replay info = %+v", info)
	}
	if hooked != 0 {
		t.Fatal("Replay must not invoke the apply hook")
	}
	select {
	case ev := <-events:
		t.Fatalf("Replay delivered %+v; recovery must be silent", ev)
	default:
	}
	if e.Core(0) != 2 {
		t.Fatalf("replayed core(0) = %d, want 2", e.Core(0))
	}

	// Post-replay changes behave normally: events delivered, hook invoked,
	// seq continuous.
	if _, err := e.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if hooked != 1 {
		t.Fatalf("post-replay hook invocations = %d, want 1", hooked)
	}
	select {
	case ev := <-events:
		if ev.Seq != 4 {
			t.Fatalf("post-replay event seq = %d, want 4", ev.Seq)
		}
	default:
		t.Fatal("post-replay change not delivered")
	}
}

// TestReplaySilentAcrossStrategies: the silence contract holds for every
// batch execution strategy, including wholesale recomputation.
func TestReplaySilentAcrossStrategies(t *testing.T) {
	e := NewEngine(WithRebuildThreshold(4, 0.0)) // tiny floor: big batches rebuild
	events, cancel := e.Subscribe()
	defer cancel()
	batch := make(Batch, 0, 40)
	for i := 0; i < 40; i++ {
		batch = append(batch, Add(i%7, 7+i))
	}
	info, err := e.Replay(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recomputed {
		t.Fatalf("expected the rebuild strategy, got %+v", info)
	}
	select {
	case ev := <-events:
		t.Fatalf("recomputed Replay delivered %+v", ev)
	default:
	}
}

// TestApplyTap: the tap observes every applied batch after the hook, fires
// even when the hook fails (in-memory state advanced regardless), and is
// silent under Replay and ReplayNotify.
func TestApplyTap(t *testing.T) {
	e := NewEngine()
	boom := errors.New("disk full")
	hookErr := error(nil)
	e.SetApplyHook(func(rec AppliedBatch) error { return hookErr })
	type logged struct {
		seq     uint64
		updates []Update
	}
	var tapped []logged
	e.SetApplyTap(func(rec AppliedBatch) {
		tapped = append(tapped, logged{rec.Seq, slices.Clone(rec.Updates)})
	})

	if _, err := e.Apply(Batch{Add(0, 1), Add(1, 2)}); err != nil {
		t.Fatal(err)
	}
	hookErr = boom
	_, err := e.Apply(Batch{Add(0, 2)})
	var he *HookError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HookError", err)
	}
	if len(tapped) != 2 {
		t.Fatalf("tap saw %d batches, want 2 (must fire even on hook failure): %+v", len(tapped), tapped)
	}
	if tapped[1].seq != 3 || !slices.Equal(tapped[1].updates, []Update{Add(0, 2)}) {
		t.Fatalf("tap record = %+v, want seq 3 / [Add(0,2)]", tapped[1])
	}

	// Replay and ReplayNotify are both re-applications of state that
	// originated elsewhere: neither reaches the tap.
	hookErr = nil
	if _, err := e.Replay(Batch{Add(5, 6)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReplayNotify(Batch{Add(6, 7)}); err != nil {
		t.Fatal(err)
	}
	if len(tapped) != 2 {
		t.Fatalf("tap invoked by Replay/ReplayNotify: %+v", tapped[2:])
	}

	// A tap without a hook still fires.
	e.SetApplyHook(nil)
	if _, err := e.AddEdge(8, 9); err != nil {
		t.Fatal(err)
	}
	if len(tapped) != 3 || tapped[2].seq != 6 {
		t.Fatalf("tap without hook: %+v", tapped)
	}
	// Detach: further applies are unobserved.
	e.SetApplyTap(nil)
	if _, err := e.AddEdge(9, 10); err != nil {
		t.Fatal(err)
	}
	if len(tapped) != 3 {
		t.Fatal("detached tap still invoked")
	}
}

// TestReplayNotify: ReplayNotify skips the hook and tap like Replay, but
// subscribers DO see the changes — the follower-side apply contract.
func TestReplayNotify(t *testing.T) {
	e := NewEngine()
	hooked, tapped := 0, 0
	e.SetApplyHook(func(AppliedBatch) error { hooked++; return nil })
	e.SetApplyTap(func(AppliedBatch) { tapped++ })
	events, cancel := e.Subscribe(WithBuffer(64))
	defer cancel()

	info, err := e.ReplayNotify(Batch{Add(0, 1), Add(1, 2), Add(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Applied != 3 || info.Seq != 3 {
		t.Fatalf("info = %+v", info)
	}
	if hooked != 0 || tapped != 0 {
		t.Fatalf("hook/tap invoked %d/%d times; ReplayNotify must skip both", hooked, tapped)
	}
	seen := 0
	for len(events) > 0 {
		ev := <-events
		if ev.Seq == 0 || ev.Seq > 3 {
			t.Fatalf("event with out-of-range seq: %+v", ev)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("ReplayNotify delivered no subscriber events")
	}
	if e.Core(0) != 2 {
		t.Fatalf("core(0) = %d, want 2", e.Core(0))
	}
}

// TestReplayNotifyAcrossStrategies: subscriber delivery holds for the
// rebuild strategy too (notifyDiff path).
func TestReplayNotifyAcrossStrategies(t *testing.T) {
	e := NewEngine(WithRebuildThreshold(4, 0.0))
	events, cancel := e.Subscribe(WithBuffer(256))
	defer cancel()
	batch := make(Batch, 0, 40)
	for i := 0; i < 40; i++ {
		batch = append(batch, Add(i%7, 7+i))
	}
	info, err := e.ReplayNotify(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recomputed {
		t.Fatalf("expected the rebuild strategy, got %+v", info)
	}
	if len(events) == 0 {
		t.Fatal("recomputed ReplayNotify delivered no events")
	}
}

// TestHookSeesParallelAndRebuildBatches: the hook fires once per Apply for
// every execution strategy with the right survivors, on a multi-update
// batch under the default options and on a recomputed batch.
func TestHookSeesParallelAndRebuildBatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		n    int
	}{
		{"default", []Option{WithSeed(3)}, 200},
		{"rebuild", []Option{WithRebuildThreshold(4, 0.0), WithSeed(3)}, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.opts...)
			var got []Update
			var seq uint64
			calls := 0
			e.SetApplyHook(func(rec AppliedBatch) error {
				calls++
				got = slices.Clone(rec.Updates)
				seq = rec.Seq
				return nil
			})
			batch := make(Batch, 0, tc.n)
			for i := 0; i < tc.n; i++ {
				batch = append(batch, Add(i%9, 9+i))
			}
			info, err := e.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			if calls != 1 || seq != info.Seq || len(got) != tc.n {
				t.Fatalf("hook calls=%d seq=%d (want %d) survivors=%d (want %d)",
					calls, seq, info.Seq, len(got), tc.n)
			}
		})
	}
}

// ExampleEngine_SetApplyHook shows the durability pattern: log every batch
// before Apply returns.
func ExampleEngine_SetApplyHook() {
	e := NewEngine()
	e.SetApplyHook(func(rec AppliedBatch) error {
		fmt.Printf("seq %d: %d updates\n", rec.Seq, len(rec.Updates))
		return nil // e.g. append to a write-ahead log and fsync
	})
	e.AddEdge(0, 1)
	e.Apply(Batch{Add(1, 2), Add(0, 2)})
	// Output:
	// seq 1: 1 updates
	// seq 3: 2 updates
}
