package korder

import (
	"math/rand/v2"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
)

// restoreCopy restores a second maintainer from m's claimed state (a clone
// of its graph, its cores and its k-order), as kcore.FromIndex does.
func restoreCopy(t *testing.T, m *Maintainer) *Maintainer {
	t.Helper()
	m2, err := Restore(m.g.Clone(), m.Cores(), m.Order(), m.opts)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	n := 40
	g := graph.New(n)
	m := New(g, Options{Seed: 5})
	for i := 0; i < 4*n; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v && !g.HasEdge(u, v) {
			mustInsert(t, m, u, v)
		}
	}
	m2 := restoreCopy(t, m)
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("restored invariants: %v", err)
	}
	// Same cores and the exact same order.
	c1, c2 := m.Cores(), m2.Cores()
	for v := range c1 {
		if c1[v] != c2[v] {
			t.Fatalf("core(%d): %d vs %d", v, c1[v], c2[v])
		}
	}
	o1, o2 := m.Order(), m2.Order()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, o1[i], o2[i])
		}
	}
	// The restored maintainer keeps working.
	for i := 0; i < 50; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || m2.Graph().HasEdge(u, v) {
			continue
		}
		mustInsert(t, m2, u, v)
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("post-restore updates: %v", err)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	m := New(graph.New(0), Options{})
	m2 := restoreCopy(t, m)
	if m2.Graph().NumVertices() != 0 {
		t.Fatal("restored empty graph not empty")
	}
	mustInsert(t, m2, 0, 1)
	if m2.Core(0) != 1 {
		t.Fatal("restored empty maintainer broken")
	}
}

// triangle returns a maintainer over a triangle on vertices 0, 1, 2 of an
// n-vertex graph.
func triangle(t *testing.T, n int) *Maintainer {
	t.Helper()
	m := New(graph.New(n), Options{Seed: 1})
	mustInsert(t, m, 0, 1)
	mustInsert(t, m, 1, 2)
	mustInsert(t, m, 0, 2)
	return m
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	m := triangle(t, 4)
	core := m.Cores()
	core[0] = 99 // a core number the graph cannot support
	if _, err := Restore(m.g.Clone(), core, m.Order(), Options{}); err == nil {
		t.Fatal("corrupted core value accepted")
	}
}

func TestSnapshotRejectsWrongOrder(t *testing.T) {
	m := triangle(t, 3)
	ord := m.Order()
	ord[1] = ord[0] // no longer a permutation
	if _, err := Restore(m.g.Clone(), m.Cores(), ord, Options{}); err == nil {
		t.Fatal("non-permutation order accepted")
	}
}

// TestReseedEquivalentToFresh: after wholesale graph mutation, Reseed must
// leave the maintainer indistinguishable from one freshly built on the same
// graph, and fully valid.
func TestReseedEquivalentToFresh(t *testing.T) {
	g := gen.ErdosRenyi(50, 100, 21)
	m := New(g, Options{Seed: 9})
	// Mutate the graph directly (as the engine's rebuild path does), then
	// reseed.
	rng := rand.New(rand.NewPCG(4, 2))
	for i := 0; i < 60; i++ {
		u, v := rng.IntN(50), rng.IntN(50)
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			_ = g.RemoveEdge(u, v)
		} else {
			_ = g.AddEdge(u, v)
		}
	}
	m.Reseed()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reseed: %v", err)
	}
	fresh := New(g.Clone(), Options{Seed: 9})
	fo, ro := fresh.Order(), m.Order()
	if len(fo) != len(ro) {
		t.Fatalf("order length %d vs fresh %d", len(ro), len(fo))
	}
	for i := range fo {
		if fo[i] != ro[i] {
			t.Fatalf("order diverges from fresh build at %d", i)
		}
	}
	fc, rc := fresh.Cores(), m.Cores()
	for v := range fc {
		if fc[v] != rc[v] {
			t.Fatalf("core(%d) = %d, fresh %d", v, rc[v], fc[v])
		}
	}
	// The reseeded maintainer keeps maintaining correctly.
	for i := 0; i < 40; i++ {
		u, v := rng.IntN(50), rng.IntN(50)
		if u == v {
			continue
		}
		var err error
		if m.g.HasEdge(u, v) {
			_, err = m.Remove(u, v)
		} else {
			_, err = m.Insert(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-reseed churn: %v", err)
	}
}
