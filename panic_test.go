package kcore

import (
	"errors"
	"slices"
	"testing"
)

// An injected probe panic must reject the batch cleanly: no state change,
// no seq advance, a *PanicError, and a usable engine afterwards.
func TestApplyProbePanicQuarantinesCleanly(t *testing.T) {
	e := NewEngine(WithSeed(1))
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
	e := NewEngine(WithSeed(7))
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
	ref := NewEngine(WithSeed(7))
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
	e := NewEngine(WithSeed(1))
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
// never committed, arrive as repair events.
func TestPanicRepairReachesSubscribers(t *testing.T) {
	e := NewEngine(WithSeed(1))
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
	if e.Core(3) != 1 || e.Seq() != seq {
		t.Fatalf("after repair core(3) = %d, seq = %d; want 1, %d", e.Core(3), e.Seq(), seq)
	}
	want := []CoreChange{{Vertex: 3, OldCore: 0, NewCore: 1, Seq: seq}}
	if got := drain(ch); !slices.Equal(got, want) {
		t.Fatalf("subscriber got %+v, want %+v", got, want)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate after repair: %v", err)
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
