package kcore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/workload"
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
	remove := e.AddApplyHook(func(rec AppliedBatch) error {
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
	remove()
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
	e.AddApplyHook(func(rec AppliedBatch) error { return boom })
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

// TestApplyHookList: every hook sees every batch in registration order,
// a failing hook does not stop the ones after it, all failures surface
// through one *HookError, and remove detaches exactly its own hook.
func TestApplyHookList(t *testing.T) {
	e := NewEngine()
	boom := errors.New("disk full")
	var order []string
	var seen []AppliedBatch
	removeFirst := e.AddApplyHook(func(rec AppliedBatch) error {
		order = append(order, "first")
		return boom
	})
	removeSecond := e.AddApplyHook(func(rec AppliedBatch) error {
		order = append(order, "second")
		seen = append(seen, AppliedBatch{Seq: rec.Seq, Updates: slices.Clone(rec.Updates)})
		return nil
	})

	_, err := e.Apply(Batch{Add(0, 1), Add(1, 2)})
	var he *HookError
	if !errors.As(err, &he) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want one *HookError wrapping the first hook's error", err)
	}
	if errors.As(he.Err, new(*HookError)) {
		t.Fatalf("hook errors nested in more than one *HookError: %v", err)
	}
	if !slices.Equal(order, []string{"first", "second"}) {
		t.Fatalf("hooks ran in order %v, want [first second]", order)
	}
	if len(seen) != 1 || seen[0].Seq != 2 || seen[0].Start() != 0 ||
		!slices.Equal(seen[0].Updates, []Update{Add(0, 1), Add(1, 2)}) {
		t.Fatalf("second hook saw %+v, want seq 2 / [Add(0,1) Add(1,2)]", seen)
	}

	// Both hooks failing: one *HookError carries both causes.
	other := errors.New("replica down")
	removeThird := e.AddApplyHook(func(AppliedBatch) error { return other })
	_, err = e.Apply(Batch{Add(2, 3)})
	if !errors.As(err, &he) || !errors.Is(err, boom) || !errors.Is(err, other) {
		t.Fatalf("err = %v, want one *HookError wrapping both failures", err)
	}
	removeThird()

	// Removing the failing hook leaves the second attached; a second remove
	// is harmless and detaches nothing else.
	removeFirst()
	removeFirst()
	order = order[:0]
	if _, err := e.AddEdge(3, 4); err != nil {
		t.Fatalf("apply after removing the failing hook: %v", err)
	}
	if !slices.Equal(order, []string{"second"}) || len(seen) != 3 || seen[2].Seq != 4 {
		t.Fatalf("after remove: order %v, seen %+v", order, seen)
	}
	removeSecond()
	if _, err := e.AddEdge(4, 5); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || len(order) != 1 {
		t.Fatalf("removed hooks still invoked: order %v, seen %d", order, len(seen))
	}
}

// TestApplyHookNoAllocs: running a list of succeeding hooks allocates
// nothing, including for a coalesced batch whose survivors are gathered
// into the reused scratch buffer.
func TestApplyHookNoAllocs(t *testing.T) {
	e := NewEngine()
	calls := 0
	for i := 0; i < 3; i++ {
		e.AddApplyHook(func(AppliedBatch) error { calls++; return nil })
	}
	batch := Batch{Add(0, 1), Add(5, 6), Remove(5, 6), Add(1, 2)}
	skip := []bool{false, true, true, false}
	info := BatchInfo{Seq: 2, Applied: 2, Coalesced: 2}
	e.mu.Lock()
	defer e.mu.Unlock()
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.runApplyHooks(batch, skip, &info); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hook loop allocated %.1f times per batch, want 0", allocs)
	}
	if calls == 0 {
		t.Fatal("hooks never ran")
	}
}

// TestChangesOnlyForSubscribers: the engine builds AppliedBatch.Changes
// only while a Subscribe subscription is active, on the maintenance and the
// recompute path alike. A hook registered through AddApplyHook sees nil
// Changes before and after a subscription, so a hook that never reads them
// (the WAL, the replication publisher) adds no allocation to a batch.
func TestChangesOnlyForSubscribers(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"sequential", nil},
		{"rebuild", []Option{WithRebuildThreshold(2, 0.0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.opts...)
			var changes []CoreChange
			e.AddApplyHook(func(rec AppliedBatch) error {
				changes = rec.Changes
				return nil
			})
			apply := func(b Batch) {
				t.Helper()
				info, err := e.Apply(b)
				if err != nil {
					t.Fatal(err)
				}
				if len(info.Total.CoreChanged) == 0 {
					t.Fatalf("batch %v changed no core", b)
				}
			}
			apply(Batch{Add(0, 1), Add(1, 2), Add(0, 2)})
			if changes != nil {
				t.Fatalf("no subscription, yet the hook saw Changes %+v", changes)
			}
			ch, cancel := e.Subscribe(WithBuffer(64))
			apply(Batch{Add(2, 3), Add(1, 3), Add(0, 3)})
			if len(changes) == 0 {
				t.Fatal("the hook saw no Changes while a subscription was active")
			}
			cancel()
			for range ch {
			}
			apply(Batch{Add(4, 5), Add(5, 6)})
			if changes != nil {
				t.Fatalf("subscription cancelled, yet the hook saw Changes %+v", changes)
			}
		})
	}

	base := gen.ErdosRenyi(2000, 6000, 7)
	ops := workload.Churn(base, 100, workload.ChurnOptions{AddFraction: 0.55, Skew: 0.2, Seed: 8})
	var batch, undo Batch
	for _, op := range ops {
		if op.Insert {
			batch = append(batch, Add(op.E.U, op.E.V))
		} else {
			batch = append(batch, Remove(op.E.U, op.E.V))
		}
	}
	for i := len(batch) - 1; i >= 0; i-- {
		if up := batch[i]; up.Op == OpAdd {
			undo = append(undo, Remove(up.U, up.V))
		} else {
			undo = append(undo, Add(up.U, up.V))
		}
	}
	allocs := func(hook bool) float64 {
		e, err := FromEdges(base.Edges())
		if err != nil {
			t.Fatal(err)
		}
		if hook {
			e.AddApplyHook(func(AppliedBatch) error { return nil })
		}
		return testing.AllocsPerRun(20, func() {
			for _, b := range []Batch{batch, undo} {
				if info, err := e.Apply(b); err != nil || info.Recomputed {
					t.Fatalf("churn batch: recomputed %v, err %v", info.Recomputed, err)
				}
			}
		})
	}
	if bare, hooked := allocs(false), allocs(true); hooked > bare {
		t.Fatalf("a no-op hook raised a 100-update churn batch and its undo from %.0f to %.0f allocations", bare, hooked)
	}
}

// TestApplyHookRemoveWaitsOutApply: hooks come and go while several
// goroutines apply. Once remove returns, its hook never runs again — the
// contract Store.Close relies on to stop logging.
func TestApplyHookRemoveWaitsOutApply(t *testing.T) {
	e := NewEngine()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := e.AddEdge(base+i, base+i+1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w * 1000)
	}
	for i := 0; i < 50; i++ {
		var removed atomic.Bool
		remove := e.AddApplyHook(func(AppliedBatch) error {
			if removed.Load() {
				t.Error("hook ran after its remove returned")
			}
			return nil
		})
		remove()
		removed.Store(true)
	}
	wg.Wait()
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
		{"default", nil, 200},
		{"rebuild", []Option{WithRebuildThreshold(4, 0.0)}, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.opts...)
			var got []Update
			var seq uint64
			calls := 0
			e.AddApplyHook(func(rec AppliedBatch) error {
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

// ExampleEngine_AddApplyHook shows the durability pattern: log every batch
// before Apply returns.
func ExampleEngine_AddApplyHook() {
	e := NewEngine()
	e.AddApplyHook(func(rec AppliedBatch) error {
		fmt.Printf("seq %d: %d updates\n", rec.Seq, len(rec.Updates))
		return nil // e.g. append to a write-ahead log and fsync
	})
	e.AddEdge(0, 1)
	e.Apply(Batch{Add(1, 2), Add(0, 2)})
	// Output:
	// seq 1: 1 updates
	// seq 3: 2 updates
}
