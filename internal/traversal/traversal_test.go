package traversal

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"kcore/internal/graph"
	"kcore/internal/korder"
	"kcore/internal/order"
)

func newMaint(t testing.TB, g *graph.Undirected, hops int) *Maintainer {
	t.Helper()
	m := New(g, hops)
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("initial invariants (h=%d): %v", hops, err)
	}
	return m
}

func TestNewPanicsOnBadHops(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hops < 2")
		}
	}()
	New(graph.New(1), 1)
}

func TestInsertTriangle(t *testing.T) {
	for _, h := range []int{2, 3, 4} {
		g := graph.New(3)
		m := newMaint(t, g, h)
		mustInsert(t, m, 0, 1)
		mustInsert(t, m, 1, 2)
		res := mustInsert(t, m, 0, 2)
		if len(res.Changed) != 3 {
			t.Fatalf("h=%d: V* = %v", h, res.Changed)
		}
		for v := 0; v < 3; v++ {
			if m.Core(v) != 2 {
				t.Fatalf("h=%d: core(%d)=%d", h, v, m.Core(v))
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if m.Hops() != h {
			t.Fatalf("Hops()=%d", m.Hops())
		}
	}
}

func TestRemoveTriangle(t *testing.T) {
	g := graph.New(3)
	mustAddRaw(t, g, 0, 1)
	mustAddRaw(t, g, 1, 2)
	mustAddRaw(t, g, 0, 2)
	m := newMaint(t, g, 2)
	res, err := m.Remove(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 3 {
		t.Fatalf("V* = %v", res.Changed)
	}
	for v := 0; v < 3; v++ {
		if m.Core(v) != 1 {
			t.Fatalf("core(%d)=%d", v, m.Core(v))
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	g := graph.New(2)
	mustAddRaw(t, g, 0, 1)
	m := newMaint(t, g, 2)
	if _, err := m.Insert(0, 1); !errors.Is(err, graph.ErrDuplicateEdge) {
		t.Fatalf("duplicate error = %v", err)
	}
	if _, err := m.Remove(0, 9); err == nil {
		t.Fatal("remove of missing edge should fail")
	}
	if m.Core(-2) != 0 {
		t.Fatal("Core out of range")
	}
}

func TestVertexGrowth(t *testing.T) {
	g := graph.New(0)
	m := newMaint(t, g, 2)
	mustInsert(t, m, 2, 6)
	if m.Core(2) != 1 || m.Core(6) != 1 || m.Core(4) != 0 {
		t.Fatalf("cores = %v", m.Cores())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExample42 reproduces Example 4.2: inserting an edge from a long
// path into a 2-core makes the traversal DFS visit the whole path even
// though V* has exactly one vertex.
func TestPaperExample42(t *testing.T) {
	g := graph.New(0)
	vs := make([]int, 5)
	for i := range vs {
		vs[i] = g.AddVertex()
	}
	for i := 0; i < 5; i++ {
		mustAddRaw(t, g, vs[i], vs[(i+1)%5])
	}
	const L = 200
	us := make([]int, L)
	for i := range us {
		us[i] = g.AddVertex()
	}
	// u0 sits in the middle of the path so the DFS spreads both ways.
	for i := 0; i+1 < L; i++ {
		mustAddRaw(t, g, us[i], us[i+1])
	}
	mustAddRaw(t, g, us[L/2], vs[0])
	m := newMaint(t, g, 2)
	res := mustInsert(t, m, us[L/2], vs[2])
	if len(res.Changed) != 1 || res.Changed[0] != us[L/2] {
		t.Fatalf("V* = %v, want [u_mid]", res.Changed)
	}
	if m.Core(us[L/2]) != 2 {
		t.Fatalf("core(u_mid)=%d", m.Core(us[L/2]))
	}
	// The deficiency the paper illustrates: |V'| is large (the DFS walks
	// the path interior whose mcd is 2 > K=1).
	if res.Visited < L/2 {
		t.Fatalf("traversal visited only %d vertices; expected a large search space", res.Visited)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomStreamOracle validates cores and rcd after every update on a
// random stream, for several hop counts.
func TestRandomStreamOracle(t *testing.T) {
	for _, h := range []int{2, 3, 5} {
		h := h
		t.Run(map[int]string{2: "h2", 3: "h3", 5: "h5"}[h], func(t *testing.T) {
			rng := rand.New(rand.NewPCG(13, uint64(h)))
			n := 20
			g := graph.New(n)
			for i := 0; i < 30; i++ {
				u, v := rng.IntN(n), rng.IntN(n)
				if u != v && !g.HasEdge(u, v) {
					mustAddRaw(t, g, u, v)
				}
			}
			m := newMaint(t, g, h)
			for step := 0; step < 250; step++ {
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
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestAgreesWithOrderBased runs identical random streams through the
// traversal maintainer and the order-based maintainer; every core number
// must agree after every update, for h = 2 and 3 against both order
// structures.
func TestAgreesWithOrderBased(t *testing.T) {
	streams := []struct {
		rng1, rng2, seed uint64
		n, steps         int
	}{
		{rng1: 55, rng2: 56, seed: 9, n: 30, steps: 500},
		{rng1: 1, rng2: 2, seed: 5, n: 25, steps: 300},
	}
	for _, hops := range []int{2, 3} {
		for _, kind := range []order.Kind{order.KindTreap, order.KindTagList} {
			t.Run(fmt.Sprintf("h%d/%s", hops, kind), func(t *testing.T) {
				for _, st := range streams {
					rng := rand.New(rand.NewPCG(st.rng1, st.rng2))
					gT := graph.New(st.n)
					gO := graph.New(st.n)
					mT := newMaint(t, gT, hops)
					mO := korder.New(gO, korder.Options{OrderKind: kind, Seed: st.seed})
					for step := 0; step < st.steps; step++ {
						u, v := rng.IntN(st.n), rng.IntN(st.n)
						if u == v {
							continue
						}
						if gT.HasEdge(u, v) {
							if _, err := mT.Remove(u, v); err != nil {
								t.Fatal(err)
							}
							if _, err := mO.Remove(u, v); err != nil {
								t.Fatal(err)
							}
						} else {
							if _, err := mT.Insert(u, v); err != nil {
								t.Fatal(err)
							}
							if _, err := mO.Insert(u, v); err != nil {
								t.Fatal(err)
							}
						}
						for x := 0; x < st.n; x++ {
							if mT.Core(x) != mO.Core(x) {
								t.Fatalf("step %d: core(%d): traversal %d vs order-based %d",
									step, x, mT.Core(x), mO.Core(x))
							}
						}
					}
					if err := mT.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					if err := mO.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestOrderBasedVisitsFewer verifies the paper's headline claim on the
// pathological structure: the order-based insertion search space is
// dramatically smaller than the traversal one.
func TestOrderBasedVisitsFewer(t *testing.T) {
	build := func() (*graph.Undirected, int, int) {
		g := graph.New(0)
		vs := make([]int, 5)
		for i := range vs {
			vs[i] = g.AddVertex()
		}
		for i := 0; i < 5; i++ {
			mustAddRaw(t, g, vs[i], vs[(i+1)%5])
		}
		const L = 300
		us := make([]int, L)
		for i := range us {
			us[i] = g.AddVertex()
		}
		for i := 0; i+1 < L; i++ {
			mustAddRaw(t, g, us[i], us[i+1])
		}
		mustAddRaw(t, g, us[L/2], vs[0])
		return g, us[L/2], vs[2]
	}
	gT, u, v := build()
	mT := newMaint(t, gT, 2)
	resT, err := mT.Insert(u, v)
	if err != nil {
		t.Fatal(err)
	}
	gO, u2, v2 := build()
	mO := korder.New(gO, korder.Options{Seed: 3})
	resO, err := mO.Insert(u2, v2)
	if err != nil {
		t.Fatal(err)
	}
	if resO.Visited*10 > resT.Visited {
		t.Fatalf("order-based visited %d, traversal %d; expected >=10x gap",
			resO.Visited, resT.Visited)
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := graph.New(4)
	m := newMaint(t, g, 2)
	mustInsert(t, m, 0, 1)
	mustInsert(t, m, 1, 2)
	if _, err := m.Remove(0, 1); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Inserts != 2 || st.Removes != 1 || st.RCDRepaired == 0 {
		t.Fatalf("stats = %+v", st)
	}
	m.ResetStats()
	if m.Stats().Inserts != 0 {
		t.Fatal("ResetStats failed")
	}
	if m.MCD(0) != m.Cores()[0] && m.MCD(0) < 0 {
		t.Fatal("MCD accessor broken")
	}
	_ = m.PCD(0)
	_ = m.Graph()
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
