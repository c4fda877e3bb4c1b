package kcore

import (
	"errors"
	"slices"
	"testing"
)

// An injected probe panic must reject the batch cleanly: no state change,
// no seq advance, a *PanicError, and a usable engine afterwards.
func TestApplyProbePanicQuarantinesCleanly(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatalf("seed batch: %v", err)
	}
	seq := e.Seq()
	arm := true
	e.SetApplyProbe(func(updates int) {
		if arm {
			arm = false
			panic("injected")
		}
	})
	_, err := e.Apply(Batch{Add(2, 3), Add(3, 4)})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Apply err = %v, want *PanicError", err)
	}
	if pe.Value != "injected" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {Value:%v Stack:%d bytes}", pe.Value, len(pe.Stack))
	}
	if e.Seq() != seq {
		t.Fatalf("seq advanced across quarantined batch: %d -> %d", seq, e.Seq())
	}
	if got := e.ExecStats().Panics; got != 1 {
		t.Fatalf("ExecStats.Panics = %d, want 1", got)
	}
	if e.Core(0) != 2 {
		t.Fatalf("core(0) = %d after quarantine, want 2", e.Core(0))
	}
	// The engine stays fully usable.
	if _, err := e.Apply(Batch{Add(2, 3), Add(3, 4)}); err != nil {
		t.Fatalf("post-quarantine Apply: %v", err)
	}
	if e.Seq() != seq+2 {
		t.Fatalf("post-quarantine seq = %d, want %d", e.Seq(), seq+2)
	}
}

// A panic mid-execution (from inside the maintainer path, modeled by a
// probe that panics on the second batch only after state exists) must
// leave the engine consistent with its graph: cores equal a from-scratch
// decomposition of whatever the graph holds.
func TestPanicContainmentRecomputesConsistentState(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	e.SetApplyProbe(func(int) { panic("boom") })
	if _, err := e.Apply(Batch{Add(3, 4)}); err == nil {
		t.Fatal("Apply under panicking probe succeeded")
	}
	e.SetApplyProbe(nil)
	// The maintained state must agree with an independent engine built
	// from the same edges.
	ref := NewEngine()
	if _, err := ref.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}); err != nil {
		t.Fatalf("ref seed: %v", err)
	}
	for v := 0; v < 5; v++ {
		if e.Core(v) != ref.Core(v) {
			t.Fatalf("core(%d) = %d after containment, ref %d", v, e.Core(v), ref.Core(v))
		}
	}
}

// Subscribers must see diff events when containment's recompute changes
// cores relative to what was already notified — and none when the panic
// fired pre-mutation.
func TestPanicContainmentNotifiesNoSpuriousEvents(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	ch, cancel := e.Subscribe(WithBuffer(16))
	defer cancel()
	e.SetApplyProbe(func(int) { panic("boom") })
	if _, err := e.Apply(Batch{Add(5, 6)}); err == nil {
		t.Fatal("Apply under panicking probe succeeded")
	}
	e.SetApplyProbe(nil)
	select {
	case ev := <-ch:
		t.Fatalf("pre-mutation quarantine emitted event %+v", ev)
	default:
	}
}

// A panic after the interrupted update already moved a core number must
// still reach subscribers: the repair is diffed against the last published
// state, so the update's own changes, never delivered because its batch
// never committed, arrive as repair events. The update had mutated the
// graph, so the repair counts it: the events carry the advanced seq.
func TestPanicRepairReachesSubscribers(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	seq := e.Seq()
	ch, cancel := e.Subscribe(WithBuffer(16))
	defer cancel()
	// The probe runs under the write lock, so it can stand in for an
	// update that moved cores and then panicked: it drives the maintainer
	// directly (vertex 3 rises 0 -> 1) before panicking.
	e.SetApplyProbe(func(int) {
		if _, err := e.m.Insert(2, 3); err != nil {
			t.Errorf("maintainer insert: %v", err)
		}
		panic("boom")
	})
	_, err := e.Apply(Batch{Add(5, 6)})
	e.SetApplyProbe(nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Apply err = %v, want *PanicError", err)
	}
	if e.Core(3) != 1 || e.Seq() != seq+1 {
		t.Fatalf("after repair core(3) = %d, seq = %d; want 1, %d", e.Core(3), e.Seq(), seq+1)
	}
	want := []CoreChange{{Vertex: 3, OldCore: 0, NewCore: 1, Seq: seq + 1}}
	if got := drain(ch); !slices.Equal(got, want) {
		t.Fatalf("subscriber got %+v, want %+v", got, want)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate after repair: %v", err)
	}
}

// An update that panics after mutating the graph must still consume a
// sequence number. Otherwise the next batch's record chains onto the
// pre-panic seq with no gap, and a log replay or a follower silently
// reproduces a graph without the interrupted edge while the engine keeps
// it. With the update counted, the record after the panic does not chain,
// so the durability and replication planes see the hole.
func TestPanicHalfAppliedLeavesGap(t *testing.T) {
	base := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	e, err := FromEdges(base)
	if err != nil {
		t.Fatal(err)
	}
	var recs []AppliedBatch
	defer e.AddApplyHook(func(rec AppliedBatch) error {
		if len(rec.Updates) > 0 {
			recs = append(recs, AppliedBatch{Seq: rec.Seq, Updates: slices.Clone(rec.Updates)})
		}
		return nil
	})()
	// The probe stands in for a maintainer panic after the graph mutation
	// (see TestPanicRepairReachesSubscribers).
	e.SetApplyProbe(func(int) {
		if _, err := e.m.Insert(2, 3); err != nil {
			t.Errorf("maintainer insert: %v", err)
		}
		panic("boom")
	})
	_, err = e.Apply(Batch{Add(5, 6)})
	e.SetApplyProbe(nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Apply err = %v, want *PanicError", err)
	}
	if _, err := e.Apply(Batch{Add(3, 4)}); err != nil {
		t.Fatalf("post-repair Apply: %v", err)
	}

	replica, err := FromEdges(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Start() != replica.Seq() {
			return // the gap is visible: a log heals by snapshot, a follower re-bootstraps
		}
		if _, err := replica.Apply(Batch(rec.Updates)); err != nil {
			t.Fatalf("replay record at seq %d: %v", rec.Seq, err)
		}
	}
	if replica.Seq() != e.Seq() || replica.NumEdges() != e.NumEdges() {
		t.Fatalf("records chained with no gap but diverged: replica at seq %d with %d edges, engine at seq %d with %d",
			replica.Seq(), replica.NumEdges(), e.Seq(), e.NumEdges())
	}
}

// The probe's delay path must not corrupt anything: a probe that just
// observes sees the surviving-update count, post-coalescing.
func TestApplyProbeSeesSurvivingCount(t *testing.T) {
	e := NewEngine()
	var got []int
	e.SetApplyProbe(func(n int) { got = append(got, n) })
	if _, err := e.Apply(Batch{Add(0, 1), Add(1, 2), Remove(1, 2)}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("probe saw %v, want [1]", got)
	}
}
