package korder

import (
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"kcore/internal/decomp"
	"kcore/internal/graph"
	"kcore/internal/order"
)

func allConfigs() []Options {
	var out []Options
	for _, h := range []decomp.Heuristic{decomp.SmallDegPlusFirst, decomp.LargeDegPlusFirst, decomp.RandomDegPlusFirst} {
		for _, k := range []order.Kind{order.KindTreap, order.KindTagList} {
			out = append(out, Options{Heuristic: h, OrderKind: k, Seed: 7})
		}
	}
	return out
}

func newMaint(t testing.TB, g *graph.Undirected) *Maintainer {
	t.Helper()
	m := New(g, Options{Seed: 42})
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("initial invariants: %v", err)
	}
	return m
}

func TestInsertSingleEdgeOnEmpty(t *testing.T) {
	g := graph.New(2)
	m := newMaint(t, g)
	res, err := m.Insert(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 2 {
		t.Fatalf("V* = %v, want both endpoints", res.Changed)
	}
	if m.Core(0) != 1 || m.Core(1) != 1 {
		t.Fatalf("cores = %d,%d want 1,1", m.Core(0), m.Core(1))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBuildTriangle(t *testing.T) {
	g := graph.New(3)
	m := newMaint(t, g)
	mustInsert(t, m, 0, 1)
	mustInsert(t, m, 1, 2)
	res := mustInsert(t, m, 0, 2)
	if m.Core(0) != 2 || m.Core(1) != 2 || m.Core(2) != 2 {
		t.Fatalf("cores after triangle: %v", m.Cores())
	}
	if len(res.Changed) != 3 {
		t.Fatalf("V* = %v, want 3 vertices", res.Changed)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveBackToPath(t *testing.T) {
	g := graph.New(3)
	mustAddRaw(t, g, 0, 1)
	mustAddRaw(t, g, 1, 2)
	mustAddRaw(t, g, 0, 2)
	m := newMaint(t, g)
	res, err := m.Remove(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 3 {
		t.Fatalf("V* = %v, want 3", res.Changed)
	}
	for v := 0; v < 3; v++ {
		if m.Core(v) != 1 {
			t.Fatalf("core(%d)=%d want 1", v, m.Core(v))
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveLastEdge(t *testing.T) {
	g := graph.New(2)
	mustAddRaw(t, g, 0, 1)
	m := newMaint(t, g)
	if _, err := m.Remove(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.Core(0) != 0 || m.Core(1) != 0 {
		t.Fatalf("cores = %v want 0,0", m.Cores())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertErrors(t *testing.T) {
	g := graph.New(2)
	mustAddRaw(t, g, 0, 1)
	m := newMaint(t, g)
	if _, err := m.Insert(0, 1); !errors.Is(err, graph.ErrDuplicateEdge) {
		t.Fatalf("duplicate insert error = %v", err)
	}
	if _, err := m.Insert(0, 0); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self loop error = %v", err)
	}
	if _, err := m.Remove(0, 5); err == nil {
		t.Fatal("remove unknown edge should fail")
	}
	if _, err := m.Remove(1, 0); err != nil {
		t.Fatalf("reversed remove failed: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveOutOfRangeError(t *testing.T) {
	g := graph.New(2)
	m := newMaint(t, g)
	if _, err := m.Remove(-1, 5); err == nil || err.Error() == "" {
		t.Fatalf("out-of-range remove error = %v", err)
	}
	if _, err := m.Remove(0, 99); err == nil {
		t.Fatal("out-of-range remove should fail")
	}
}

func TestInsertGrowsVertices(t *testing.T) {
	g := graph.New(0)
	m := newMaint(t, g)
	mustInsert(t, m, 5, 9)
	if m.Graph().NumVertices() != 10 {
		t.Fatalf("n=%d want 10", m.Graph().NumVertices())
	}
	if m.Core(5) != 1 || m.Core(9) != 1 || m.Core(3) != 0 {
		t.Fatalf("cores after sparse growth: %v", m.Cores())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRejectedKeepsVertexSet pins that an edge Insert rejects leaves
// the maintained state unchanged: a self loop or a negative id must not grow
// the graph, the records or O_0 before the graph refuses the edge.
func TestInsertRejectedKeepsVertexSet(t *testing.T) {
	for _, k := range []order.Kind{order.KindTreap, order.KindTagList} {
		g := graph.New(5)
		mustAddRaw(t, g, 0, 1)
		mustAddRaw(t, g, 1, 2)
		m := New(g, Options{OrderKind: k, Seed: 3})
		cores, ord := m.Cores(), m.Order()
		for _, e := range []struct {
			u, v int
			want error
		}{
			{7, 7, graph.ErrSelfLoop},
			{-1, 3, graph.ErrVertexRange},
			{9, -2, graph.ErrVertexRange},
			{0, 1, graph.ErrDuplicateEdge},
		} {
			if _, err := m.Insert(e.u, e.v); !errors.Is(err, e.want) {
				t.Fatalf("%v: Insert(%d,%d) error = %v, want %v", k, e.u, e.v, err, e.want)
			}
			if n := m.Graph().NumVertices(); n != 5 {
				t.Fatalf("%v: rejected Insert(%d,%d) grew the graph to %d vertices", k, e.u, e.v, n)
			}
			if !slices.Equal(m.Cores(), cores) || !slices.Equal(m.Order(), ord) {
				t.Fatalf("%v: rejected Insert(%d,%d) changed the state: cores %v order %v, was %v %v",
					k, e.u, e.v, m.Cores(), m.Order(), cores, ord)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

// TestCheckInvariantsCatchesTagCorruption pins that CheckInvariants reads
// the tags the tag-list scans compare: a record whose tag no longer rises
// along its level must fail the check.
func TestCheckInvariantsCatchesTagCorruption(t *testing.T) {
	g := graph.New(6)
	for v := 1; v < 6; v++ {
		mustAddRaw(t, g, 0, v)
	}
	m := New(g, Options{OrderKind: order.KindTagList, Seed: 3})
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	lvl := order.Slice(m.levels[1])
	if len(lvl) < 2 {
		t.Fatalf("O_1 = %v, want at least two vertices", lvl)
	}
	v, prev := lvl[len(lvl)-1], lvl[len(lvl)-2]
	m.vs[v].tag = m.vs[prev].tag
	err := m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "tag") {
		t.Fatalf("CheckInvariants after corrupting the tag of %d = %v, want a tag error", v, err)
	}
}

// TestPaperExample52 reproduces Example 5.2: a long path attached to a
// structure with higher cores; inserting an edge from the path's last
// vertex into the 2-core must update only that vertex, visiting O(1)
// vertices (this is the case where the traversal algorithm visits the
// entire path).
func TestPaperExample52(t *testing.T) {
	g := graph.New(0)
	// Pentagon v1..v5 (2-core).
	vs := make([]int, 5)
	for i := range vs {
		vs[i] = g.AddVertex()
	}
	for i := 0; i < 5; i++ {
		mustAddRaw(t, g, vs[i], vs[(i+1)%5])
	}
	// Path u_0 .. u_{L-1} with u_{L-1} .. u_0 ordered so u_0 attaches last.
	const L = 500
	us := make([]int, L)
	for i := range us {
		us[i] = g.AddVertex()
	}
	for i := 0; i+1 < L; i++ {
		mustAddRaw(t, g, us[i], us[i+1])
	}
	// u_0 touches the pentagon once (still core 1).
	mustAddRaw(t, g, us[0], vs[0])
	m := newMaint(t, g)
	if m.Core(us[0]) != 1 || m.Core(vs[0]) != 2 {
		t.Fatalf("setup cores wrong: u0=%d v0=%d", m.Core(us[0]), m.Core(vs[0]))
	}
	// Insert (u_0, v_2): u_0 gains a second anchor into the 2-core, so
	// core(u_0) becomes 2; no other vertex changes.
	res := mustInsert(t, m, us[0], vs[2])
	if len(res.Changed) != 1 || res.Changed[0] != us[0] {
		t.Fatalf("V* = %v, want [u0]", res.Changed)
	}
	if m.Core(us[0]) != 2 {
		t.Fatalf("core(u0) = %d want 2", m.Core(us[0]))
	}
	// The order-based scan must not walk the path: |V+| stays tiny.
	if res.Visited > 5 {
		t.Fatalf("order-based insertion visited %d vertices; want O(1)", res.Visited)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem31 checks that no update ever changes a core number by more
// than 1, and insertions only increase while removals only decrease.
func TestTheorem31(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	g := graph.New(30)
	m := newMaint(t, g)
	for step := 0; step < 800; step++ {
		before := m.Cores()
		u, v := rng.IntN(30), rng.IntN(30)
		if u == v {
			continue
		}
		var err error
		insert := !m.Graph().HasEdge(u, v)
		if insert {
			_, err = m.Insert(u, v)
		} else {
			_, err = m.Remove(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		after := m.Cores()
		for x := range before {
			d := after[x] - before[x]
			if insert && (d < 0 || d > 1) {
				t.Fatalf("step %d: insert changed core(%d) by %d", step, x, d)
			}
			if !insert && (d > 0 || d < -1) {
				t.Fatalf("step %d: remove changed core(%d) by %d", step, x, d)
			}
		}
	}
}

// TestRandomStreamAllConfigs is the primary oracle test: random
// insert/remove streams on random graphs, validating the full maintained
// state (cores, k-order, deg+, mcd, level membership) against
// recomputation after every update, for every heuristic and order
// structure.
func TestRandomStreamAllConfigs(t *testing.T) {
	for _, cfg := range allConfigs() {
		cfg := cfg
		name := cfg.Heuristic.String() + "/" + cfg.OrderKind.String()
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(101, uint64(cfg.Heuristic)<<8|uint64(cfg.OrderKind)))
			n := 24
			g := graph.New(n)
			// Seed graph.
			for i := 0; i < 40; i++ {
				u, v := rng.IntN(n), rng.IntN(n)
				if u != v && !g.HasEdge(u, v) {
					mustAddRaw(t, g, u, v)
				}
			}
			m := New(g, cfg)
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("init: %v", err)
			}
			for step := 0; step < 400; step++ {
				u, v := rng.IntN(n), rng.IntN(n)
				if u == v {
					continue
				}
				var err error
				if g.HasEdge(u, v) {
					_, err = m.Remove(u, v)
				} else {
					_, err = m.Insert(u, v)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("step %d (%s): %v", step, name, err)
				}
			}
		})
	}
}

// TestDenseChurn drives a denser graph through heavy insert-then-remove
// churn with periodic full validation.
func TestDenseChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	n := 60
	g := graph.New(n)
	m := newMaint(t, g)
	type edge struct{ u, v int }
	var edges []edge
	// Build up ~6n edges.
	for len(edges) < 6*n {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		mustInsert(t, m, u, v)
		edges = append(edges, edge{u, v})
		if len(edges)%50 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("build %d: %v", len(edges), err)
			}
		}
	}
	// Tear down in random order.
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i, e := range edges {
		if _, err := m.Remove(e.u, e.v); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
		if i%50 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("teardown %d: %v", i, err)
			}
		}
	}
	for v := 0; v < n; v++ {
		if m.Core(v) != 0 {
			t.Fatalf("core(%d)=%d after removing all edges", v, m.Core(v))
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRemoveInverse checks that inserting then removing an edge
// restores all core numbers.
func TestInsertRemoveInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	n := 40
	g := graph.New(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v && !g.HasEdge(u, v) {
			mustAddRaw(t, g, u, v)
		}
	}
	m := newMaint(t, g)
	base := m.Cores()
	for trial := 0; trial < 100; trial++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		mustInsert(t, m, u, v)
		if _, err := m.Remove(u, v); err != nil {
			t.Fatal(err)
		}
		got := m.Cores()
		for x := range base {
			if got[x] != base[x] {
				t.Fatalf("trial %d: core(%d) = %d, want %d after insert+remove", trial, x, got[x], base[x])
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueriesAndStats(t *testing.T) {
	g := graph.New(4)
	m := newMaint(t, g)
	mustInsert(t, m, 0, 1)
	mustInsert(t, m, 1, 2)
	mustInsert(t, m, 0, 2)
	if m.MaxCore() != 2 {
		t.Fatalf("MaxCore=%d", m.MaxCore())
	}
	kc := m.KCore(2)
	if len(kc) != 3 {
		t.Fatalf("KCore(2)=%v", kc)
	}
	if len(m.KCore(3)) != 0 {
		t.Fatal("KCore(3) should be empty")
	}
	ord := m.Order()
	if len(ord) != 4 {
		t.Fatalf("Order()=%v", ord)
	}
	if ord[0] != 3 { // isolated vertex 3 is the only core-0 vertex
		t.Fatalf("order should start with the isolated vertex, got %v", ord)
	}
	st := m.Stats()
	if st.Inserts != 3 || st.Removes != 0 || st.ChangedInsert == 0 {
		t.Fatalf("stats = %+v", st)
	}
	m.ResetStats()
	if m.Stats().Inserts != 0 {
		t.Fatal("ResetStats failed")
	}
	if m.Core(-1) != 0 || m.Core(99) != 0 {
		t.Fatal("Core out of range should be 0")
	}
}

// TestVStarSubsetOfVPlus checks V* ⊆ V+ accounting (Visited >= |Changed|).
func TestVStarSubsetOfVPlus(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	n := 50
	g := graph.New(n)
	m := newMaint(t, g)
	for step := 0; step < 600; step++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		res := mustInsert(t, m, u, v)
		if res.Visited < len(res.Changed) {
			t.Fatalf("step %d: visited %d < |V*| %d", step, res.Visited, len(res.Changed))
		}
	}
}

// TestCliqueGrowth inserts edges forming an ever-larger clique; core
// numbers must track k-1 for a (k)-clique.
func TestCliqueGrowth(t *testing.T) {
	g := graph.New(0)
	m := newMaint(t, g)
	const K = 12
	for v := 1; v < K; v++ {
		for u := 0; u < v; u++ {
			mustInsert(t, m, u, v)
		}
		for u := 0; u <= v; u++ {
			if m.Core(u) != v {
				t.Fatalf("clique size %d: core(%d)=%d want %d", v+1, u, m.Core(u), v)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Peel the clique back down.
	for v := K - 1; v >= 1; v-- {
		for u := 0; u < v; u++ {
			if _, err := m.Remove(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSoakLargeChurn is a longer mixed-churn soak on a larger graph, with
// periodic full validation (skipped with -short).
func TestSoakLargeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewPCG(2024, 6))
	n := 300
	g := graph.New(n)
	m := New(g, Options{Seed: 12})
	for step := 0; step < 8000; step++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		var err error
		if g.HasEdge(u, v) {
			_, err = m.Remove(u, v)
		} else {
			_, err = m.Insert(u, v)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%1000 == 999 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertStream is a testing/quick property: for any sequence of
// vertex pairs, inserting the distinct edges one by one through the
// maintainer leaves a fully valid state.
func TestQuickInsertStream(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		g := graph.New(1)
		m := New(g, Options{Seed: 4})
		for _, p := range pairs {
			u, v := int(p[0])%24, int(p[1])%24
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if _, err := m.Insert(u, v); err != nil {
				return false
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertThenRemoveAll: inserting any edge set and removing it in
// reverse order restores an all-zero core assignment and a valid state.
func TestQuickInsertThenRemoveAll(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		g := graph.New(1)
		m := New(g, Options{Seed: 8})
		var added [][2]int
		for _, p := range pairs {
			u, v := int(p[0])%20, int(p[1])%20
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if _, err := m.Insert(u, v); err != nil {
				return false
			}
			added = append(added, [2]int{u, v})
		}
		for i := len(added) - 1; i >= 0; i-- {
			if _, err := m.Remove(added[i][0], added[i][1]); err != nil {
				return false
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			if m.Core(v) != 0 {
				return false
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func mustInsert(t testing.TB, m *Maintainer, u, v int) UpdateResult {
	t.Helper()
	res, err := m.Insert(u, v)
	if err != nil {
		t.Fatalf("Insert(%d,%d): %v", u, v, err)
	}
	return res
}

func mustAddRaw(t testing.TB, g *graph.Undirected, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}
