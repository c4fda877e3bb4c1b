package kcore

import (
	"reflect"
	"slices"
	"testing"
)

// TestRestoreShrinkDropsCores: restoring a state with fewer vertices
// reports every dropped vertex's core falling to 0, at the restored seq,
// even though that seq is lower than the engine's own.
func TestRestoreShrinkDropsCores(t *testing.T) {
	small, err := FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(WithSeed(3))
	var batch Batch
	for u := 0; u < 7; u++ { // K7 on 0..6: every core is 6
		for v := u + 1; v < 7; v++ {
			batch = append(batch, Add(u, v))
		}
	}
	if _, err := e.Apply(batch); err != nil {
		t.Fatal(err)
	}
	ch, cancel := e.Subscribe(WithBuffer(16))
	defer cancel()

	st := small.Index()
	if err := e.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	var want []CoreChange
	for v := 0; v < 7; v++ {
		c := 0
		if v < 3 {
			c = 2
		}
		want = append(want, CoreChange{Vertex: v, OldCore: 6, NewCore: c, Seq: st.Seq})
	}
	if got := drain(ch); !slices.Equal(got, want) {
		t.Fatalf("restore events = %+v, want %+v", got, want)
	}
	if e.NumVertices() != 3 || e.Seq() != st.Seq || !slices.Equal(e.Cores(), []int{2, 2, 2}) {
		t.Fatalf("after Restore: %d vertices, seq %d, cores %v", e.NumVertices(), e.Seq(), e.Cores())
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate after Restore: %v", err)
	}
}

// TestRestoreKeepsObservers: Restore swaps the state of a live engine and
// keeps its hooks, subscriptions and apply probe. Change hooks see the
// restore's diff as a record with no Updates, plain hooks do not, and the
// restored engine then maintains exactly as one built by FromIndex.
func TestRestoreKeepsObservers(t *testing.T) {
	src := NewEngine(WithSeed(5))
	g := newChurnGen(21, 60)
	if _, err := src.Apply(g.batch(150)); err != nil {
		t.Fatal(err)
	}
	st := src.Index()
	next := g.batch(40)

	e := NewEngine(WithSeed(9))
	if _, err := e.Apply(Batch{Add(0, 1), Add(1, 2), Add(0, 2), Add(70, 71)}); err != nil {
		t.Fatal(err)
	}
	old := e.Cores()
	var plain []AppliedBatch
	defer e.AddApplyHook(func(rec AppliedBatch) error {
		plain = append(plain, AppliedBatch{Seq: rec.Seq, Updates: slices.Clone(rec.Updates)})
		return nil
	})()
	ch, cancel := e.Subscribe(WithBuffer(4096))
	defer cancel()
	probed := 0
	e.SetApplyProbe(func(int) { probed++ })

	if err := e.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(plain) != 0 {
		t.Fatalf("a plain hook saw the restore: %+v", plain)
	}
	// The events turn the old cores into the restored ones; the old state
	// has more vertices, whose cores fall to 0.
	if len(old) <= st.Vertices {
		t.Fatalf("old state has %d vertices, restored %d: the test needs a shrink", len(old), st.Vertices)
	}
	cores := slices.Clone(old)
	for _, ev := range drain(ch) {
		if ev.Seq != st.Seq || cores[ev.Vertex] != ev.OldCore {
			t.Fatalf("restore event %+v, but the vertex's core was %d at seq %d",
				ev, cores[ev.Vertex], st.Seq)
		}
		cores[ev.Vertex] = ev.NewCore
	}
	want := append(slices.Clone(st.Cores), make([]int, len(old)-st.Vertices)...)
	if !slices.Equal(cores, want) {
		t.Fatalf("events turned the old cores into %v, want %v", cores, want)
	}

	ref, err := FromIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(next); err != nil {
		t.Fatal(err)
	}
	info, err := e.Apply(next)
	if err != nil {
		t.Fatal(err)
	}
	if probed != 1 || len(plain) != 1 || plain[0].Seq != info.Seq {
		t.Fatalf("after Restore: probe ran %d times, plain hook saw %+v", probed, plain)
	}
	if !reflect.DeepEqual(e.Index(), ref.Index()) {
		t.Fatal("restored engine diverged from a FromIndex engine on the same batch")
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsBadState: a state that fails verification leaves the
// engine and its subscribers untouched.
func TestRestoreRejectsBadState(t *testing.T) {
	e, err := FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := e.Subscribe()
	defer cancel()
	bad := e.Index()
	bad.Cores[0] = 1
	bad.Seq = 99
	if err := e.Restore(bad); err == nil {
		t.Fatal("Restore accepted wrong core numbers")
	}
	if e.Seq() != 0 || !slices.Equal(e.Cores(), []int{2, 2, 2}) {
		t.Fatalf("failed Restore changed the engine: seq %d, cores %v", e.Seq(), e.Cores())
	}
	if got := drain(ch); len(got) != 0 {
		t.Fatalf("failed Restore delivered %+v", got)
	}
}
