package korder

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
)

func snapshotRoundTrip(t *testing.T, m *Maintainer) *Maintainer {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadSnapshot(&buf, m.opts)
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
	m2 := snapshotRoundTrip(t, m)
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
	m2 := snapshotRoundTrip(t, m)
	if m2.Graph().NumVertices() != 0 {
		t.Fatal("restored empty graph not empty")
	}
	mustInsert(t, m2, 0, 1)
	if m2.Core(0) != 1 {
		t.Fatal("restored empty maintainer broken")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	g := graph.New(4)
	m := New(g, Options{Seed: 1})
	mustInsert(t, m, 0, 1)
	mustInsert(t, m, 1, 2)
	mustInsert(t, m, 0, 2)
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at every prefix length must error, not panic.
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := LoadSnapshot(bytes.NewReader(good[:cut]), Options{}); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte("NOTMAGIC"), good[8:]...)
	if _, err := LoadSnapshot(bytes.NewReader(bad), Options{}); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Corrupt a core value: flip the core bytes region. Core section
	// starts after magic(8)+version(4)+n,m(16)+edges(2m*4).
	corrupt := append([]byte(nil), good...)
	coreOff := 8 + 4 + 16 + 2*3*4
	corrupt[coreOff] = 99
	if _, err := LoadSnapshot(bytes.NewReader(corrupt), Options{}); err == nil {
		t.Fatal("corrupted core value accepted")
	}
	if _, err := LoadSnapshot(strings.NewReader(""), Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSnapshotRejectsWrongOrder(t *testing.T) {
	// Build a snapshot by hand with a non-monotone order: must be rejected.
	g := graph.New(3)
	m := New(g, Options{Seed: 1})
	mustInsert(t, m, 0, 1)
	mustInsert(t, m, 1, 2)
	mustInsert(t, m, 0, 2)
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Order section = last n*4 bytes. Swap two entries so the claimed
	// peeling order breaks deg+ <= core (a triangle has a unique level).
	// Instead corrupt the permutation: duplicate the first order entry.
	orderOff := len(raw) - 3*4
	copy(raw[orderOff+4:orderOff+8], raw[orderOff:orderOff+4])
	if _, err := LoadSnapshot(bytes.NewReader(raw), Options{}); err == nil {
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
