package graph

import (
	"bytes"
	"errors"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	var g Undirected
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero value not empty: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.HasEdge(0, 1) {
		t.Fatal("HasEdge on empty graph")
	}
	if g.Degree(5) != 0 {
		t.Fatal("Degree of unknown vertex should be 0")
	}
	if g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("degenerate degree stats wrong")
	}
}

func TestNewAllocatesVertices(t *testing.T) {
	g := New(5)
	if g.NumVertices() != 5 {
		t.Fatalf("New(5): n=%d", g.NumVertices())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("New(5): m=%d", g.NumEdges())
	}
	g2 := New(0)
	if g2.NumVertices() != 0 {
		t.Fatalf("New(0): n=%d", g2.NumVertices())
	}
}

func TestAddEdgeBasics(t *testing.T) {
	var g Undirected
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.NumEdges() != 1 || g.NumVertices() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate edge error = %v", err)
	}
	if err := g.AddEdge(1, 0); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("reversed duplicate edge error = %v", err)
	}
	if err := g.AddEdge(2, 2); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop error = %v", err)
	}
	if err := g.AddEdge(-1, 0); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("negative vertex error = %v", err)
	}
}

func TestAddEdgeGrowsVertices(t *testing.T) {
	var g Undirected
	if err := g.AddEdge(3, 7); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 {
		t.Fatalf("n=%d, want 8", g.NumVertices())
	}
	if g.Degree(3) != 1 || g.Degree(7) != 1 || g.Degree(5) != 0 {
		t.Fatal("degrees wrong after growth")
	}
}

func TestRemoveEdge(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	mustAdd(t, &g, 0, 2)
	if err := g.RemoveEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge survived removal")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d, want 2", g.NumEdges())
	}
	if err := g.RemoveEdge(0, 1); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("missing edge error = %v", err)
	}
	if err := g.RemoveEdge(9, 10); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("unknown vertices error = %v", err)
	}
	// Re-adding after removal must work.
	mustAdd(t, &g, 0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("re-added edge missing")
	}
}

func TestAddVertex(t *testing.T) {
	g := New(2)
	id := g.AddVertex()
	if id != 2 || g.NumVertices() != 3 {
		t.Fatalf("AddVertex id=%d n=%d", id, g.NumVertices())
	}
}

func TestNeighborsAndAppend(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 0, 2)
	mustAdd(t, &g, 0, 3)
	got := g.AppendNeighbors(nil, 0)
	sort.Ints(got)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	if g.Neighbors(99) != nil {
		t.Fatal("Neighbors of unknown vertex should be nil")
	}
}

func TestForEachEdgeAndEdges(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 2, 1)
	mustAdd(t, &g, 0, 3)
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not normalized u<v", e)
		}
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v reported but absent", e)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	if err := c.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	mustAdd(t, c, 0, 5)
	if g.NumVertices() != 3 {
		t.Fatal("clone vertex growth leaked into original")
	}
}

func TestInducedSubgraph(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	mustAdd(t, &g, 2, 3)
	keep := []bool{true, true, true, false}
	s := g.InducedSubgraph(keep)
	if s.NumVertices() != g.NumVertices() {
		t.Fatalf("induced n=%d", s.NumVertices())
	}
	if !s.HasEdge(0, 1) || !s.HasEdge(1, 2) || s.HasEdge(2, 3) {
		t.Fatal("induced edge set wrong")
	}
}

func TestEqual(t *testing.T) {
	var a, b Undirected
	mustAdd(t, &a, 0, 1)
	mustAdd(t, &b, 0, 1)
	if !a.Equal(&b) {
		t.Fatal("equal graphs reported unequal")
	}
	mustAdd(t, &b, 1, 2)
	if a.Equal(&b) {
		t.Fatal("unequal edge counts reported equal")
	}
	var c Undirected
	mustAdd(t, &c, 0, 2)
	c.EnsureVertex(1)
	if a.NumVertices() == c.NumVertices() && a.Equal(&c) {
		t.Fatal("different edge sets reported equal")
	}
}

// TestRandomizedAgainstMapModel drives the graph with random operations and
// checks every observable against a simple map-based reference model.
func TestRandomizedAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 40
	var g Undirected
	g.EnsureVertex(n - 1)
	ref := make(map[[2]int]bool)
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for step := 0; step < 5000; step++ {
		u := rng.IntN(n)
		v := rng.IntN(n)
		if u == v {
			continue
		}
		if rng.IntN(2) == 0 {
			err := g.AddEdge(u, v)
			if ref[key(u, v)] {
				if !errors.Is(err, ErrDuplicateEdge) {
					t.Fatalf("step %d: expected duplicate error, got %v", step, err)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: add: %v", step, err)
				}
				ref[key(u, v)] = true
			}
		} else {
			err := g.RemoveEdge(u, v)
			if ref[key(u, v)] {
				if err != nil {
					t.Fatalf("step %d: remove: %v", step, err)
				}
				delete(ref, key(u, v))
			} else if !errors.Is(err, ErrMissingEdge) {
				t.Fatalf("step %d: expected missing error, got %v", step, err)
			}
		}
		if g.NumEdges() != len(ref) {
			t.Fatalf("step %d: m=%d want %d", step, g.NumEdges(), len(ref))
		}
	}
	// Final full comparison of edge sets and degrees.
	deg := make([]int, n)
	for e := range ref {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("model edge %v missing", e)
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) != deg[v] {
			t.Fatalf("degree(%d)=%d want %d", v, g.Degree(v), deg[v])
		}
	}
	g.ForEachEdge(func(u, v int) {
		if !ref[key(u, v)] {
			t.Fatalf("graph edge (%d,%d) not in model", u, v)
		}
	})
}

func TestQuickDegreeSum(t *testing.T) {
	// Property: sum of degrees == 2m for arbitrary edge sets.
	f := func(pairs [][2]uint8) bool {
		var g Undirected
		for _, p := range pairs {
			u, v := int(p[0])%50, int(p[1])%50
			if u != v {
				_ = g.AddEdge(u, v) // duplicates allowed to fail
			}
		}
		sum := 0
		for v := 0; v < g.NumVertices(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment

0 1
1 2 extra-ignored
2 0
2 2
0 1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m=%d want 3 (dup and self loop skipped)", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatal("edges missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 b\n",
		"-1 2\n",
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var g Undirected
	g.EnsureVertex(29)
	for i := 0; i < 100; i++ {
		u, v := rng.IntN(30), rng.IntN(30)
		if u != v && !g.HasEdge(u, v) {
			mustAdd(t, &g, u, v)
		}
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, &g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != h.NumEdges() {
		t.Fatalf("round trip m: %d vs %d", g.NumEdges(), h.NumEdges())
	}
	g.ForEachEdge(func(u, v int) {
		if !h.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost in round trip", u, v)
		}
	})
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 16 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriteEdgeListError(t *testing.T) {
	var g Undirected
	for i := 0; i < 50; i++ {
		mustAdd(t, &g, i, i+50)
	}
	if err := WriteEdgeList(&failWriter{}, &g); err == nil {
		t.Fatal("expected write error to propagate")
	}
}

func TestBFS(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	mustAdd(t, &g, 3, 4)
	var visited []int
	g.BFS(0, nil, func(v int) bool { visited = append(visited, v); return true })
	sort.Ints(visited)
	if len(visited) != 3 || visited[0] != 0 || visited[2] != 2 {
		t.Fatalf("BFS visited %v", visited)
	}
	// Early stop.
	count := 0
	g.BFS(0, nil, func(v int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("BFS early stop visited %d", count)
	}
	// Eligibility filter.
	visited = visited[:0]
	g.BFS(0, func(v int) bool { return v != 1 }, func(v int) bool { visited = append(visited, v); return true })
	if len(visited) != 1 || visited[0] != 0 {
		t.Fatalf("filtered BFS visited %v", visited)
	}
	// Unknown source is a no-op.
	g.BFS(99, nil, func(v int) bool { t.Fatal("visited from unknown source"); return false })
}

func TestConnectedComponents(t *testing.T) {
	var g Undirected
	mustAdd(t, &g, 0, 1)
	mustAdd(t, &g, 1, 2)
	mustAdd(t, &g, 3, 4)
	g.EnsureVertex(5)
	label, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("k=%d want 3", k)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("component 0-1-2 split")
	}
	if label[3] != label[4] {
		t.Fatal("component 3-4 split")
	}
	if label[5] == label[0] || label[5] == label[3] {
		t.Fatal("isolated vertex merged")
	}
}

func mustAdd(t *testing.T, g *Undirected, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

// TestHybridIndexPromotion pins the hybrid adjacency invariants: no map
// below the degree threshold, promotion exactly when the threshold is
// crossed, sticky promotion on the way down, and a map index that stays
// consistent with the slice across swap-removes in both regimes.
func TestHybridIndexPromotion(t *testing.T) {
	var g Undirected
	hub := 0
	for v := 1; v <= IndexThreshold; v++ {
		if err := g.AddEdge(hub, v); err != nil {
			t.Fatal(err)
		}
		if g.pos[hub] != nil {
			t.Fatalf("hub promoted at degree %d, threshold is %d", g.Degree(hub), IndexThreshold)
		}
		if g.pos[v] != nil {
			t.Fatalf("degree-1 vertex %d has a map index", v)
		}
	}
	if err := g.AddEdge(hub, IndexThreshold+1); err != nil {
		t.Fatal(err)
	}
	if g.pos[hub] == nil {
		t.Fatalf("hub not promoted at degree %d", g.Degree(hub))
	}
	checkIndex := func() {
		t.Helper()
		for v := range g.adj {
			p := g.pos[v]
			if p == nil {
				continue
			}
			if len(p) != len(g.adj[v]) {
				t.Fatalf("pos[%d] has %d entries, adj has %d", v, len(p), len(g.adj[v]))
			}
			for i, w := range g.adj[v] {
				if p[w] != int32(i) {
					t.Fatalf("pos[%d][%d]=%d, adj index is %d", v, w, p[w], i)
				}
			}
		}
	}
	checkIndex()
	// Remove from the middle and the end (swap-remove both regimes).
	for _, v := range []int{1, IndexThreshold + 1, 7, 2} {
		if err := g.RemoveEdge(hub, v); err != nil {
			t.Fatal(err)
		}
		if g.HasEdge(hub, v) {
			t.Fatalf("edge (0,%d) still present after removal", v)
		}
		checkIndex()
	}
	// Sticky: dropping far below the threshold keeps the hub's index.
	for v := 3; v <= IndexThreshold; v++ {
		if v == 7 {
			continue
		}
		if err := g.RemoveEdge(hub, v); err != nil {
			t.Fatal(err)
		}
	}
	if g.Degree(hub) >= IndexThreshold {
		t.Fatalf("hub degree still %d", g.Degree(hub))
	}
	if g.pos[hub] == nil {
		t.Fatal("promotion is documented sticky but the index was dropped")
	}
	checkIndex()
}

// TestFromEdgesWorkers builds random edge lists, with hubs past
// IndexThreshold, a duplicate written either way round in some of them
// and vertex counts above and below the largest id, with one to five fill
// workers, and compares each result with New plus AddEdge in input order:
// the same bad index and error, vertex and edge counts, every list's
// order and capacity, and the hub maps. FromEdges fills small lists on one
// worker, so this is the test of the split.
func TestFromEdgesWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	for trial := 0; trial < 60; trial++ {
		ids := 300 + rng.IntN(400)
		var edges [][2]int
		seen := make(map[[2]int]bool)
		add := func(u, v int) {
			if u != v && !seen[[2]int{min(u, v), max(u, v)}] {
				seen[[2]int{min(u, v), max(u, v)}] = true
				edges = append(edges, [2]int{u, v})
			}
		}
		for h := rng.IntN(3); h > 0; h-- {
			hub := rng.IntN(ids)
			for k := IndexThreshold + rng.IntN(40); k > 0; k-- {
				add(hub, rng.IntN(ids))
			}
		}
		for k := rng.IntN(4 * ids); k > 0; k-- {
			add(rng.IntN(ids), rng.IntN(ids))
		}
		if trial == 0 { // every arc at the last id: the ranges before it are empty
			edges = edges[:0]
			for v := 0; v < ids-1; v++ {
				edges = append(edges, [2]int{v, ids - 1})
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i := range edges {
			if rng.IntN(2) == 1 {
				edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
			}
		}
		if trial%3 == 1 && len(edges) > 0 {
			e := edges[rng.IntN(len(edges))]
			if rng.IntN(2) == 1 {
				e[0], e[1] = e[1], e[0]
			}
			edges = slices.Insert(edges, rng.IntN(len(edges)+1), e)
		}
		n := rng.IntN(ids + 20)

		want, wantBad, wantErr := New(n), -1, error(nil)
		for i, e := range edges {
			if err := want.AddEdge(e[0], e[1]); err != nil {
				want, wantBad, wantErr = nil, i, err
				break
			}
		}
		for w := 1; w <= 5; w++ {
			g, bad, err := fromEdges(n, edges, w)
			if bad != wantBad || err != wantErr {
				t.Fatalf("trial %d, %d workers: bad %d, error %v; AddEdge: bad %d, error %v",
					trial, w, bad, err, wantBad, wantErr)
			}
			if want == nil {
				continue
			}
			if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
				t.Fatalf("trial %d, %d workers: n=%d m=%d, want n=%d m=%d",
					trial, w, g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
			}
			for v := range want.NumVertices() {
				got, exp := g.Neighbors(v), want.Neighbors(v)
				if !slices.Equal(got, exp) || cap(got) != cap(exp) {
					t.Fatalf("trial %d, %d workers: Neighbors(%d) = %v (cap %d), want %v (cap %d)",
						trial, w, v, got, cap(got), exp, cap(exp))
				}
				if !maps.Equal(g.pos[v], want.pos[v]) || (g.pos[v] == nil) != (want.pos[v] == nil) {
					t.Fatalf("trial %d, %d workers: vertex %d's hub map differs", trial, w, v)
				}
			}
		}
	}
}
