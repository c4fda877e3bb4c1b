// Package graph provides the dynamic undirected graph substrate used by all
// core-maintenance algorithms in this repository.
//
// Vertices are dense non-negative integers. The adjacency representation is a
// slice per vertex plus a hybrid position index: below IndexThreshold (256)
// membership and removal scan the adjacency slice, whose lines the caller
// (an append, or the core maintainer's neighbor loops) reads next anyway,
// and only hub vertices that cross the threshold are promoted to a map
// index. Power-law streams therefore allocate maps for a tiny fraction of
// vertices (103 of pokec-sim's 30k) while keeping insertion, removal, and
// membership tests O(1) expected at hubs and bounded by a 1 KB scan
// elsewhere, allocation-free neighbor iteration, and deterministic
// (insertion, perturbed by swap-removes) order.
//
// A graph built from a complete edge list comes from FromEdges, not from
// an AddEdge per edge. AddEdge must probe for a duplicate before each
// insert, since it cannot know the rest of the list; FromEdges sees the
// whole list, so it counts degrees, allocates each list once, appends the
// arcs in input order, and then finds duplicates in one pass over the
// lists by stamping each vertex's neighbors in a mark array (a
// count-then-fill build, as CSR builders do). Past the degree count the
// build runs on a few goroutines (at most GOMAXPROCS, and one below 2^14
// edges per worker), each owning a contiguous vertex range balanced by
// degree: it allocates its lists, reads the whole edge list in input order
// appending the arcs of its own vertices, stamps them in its own mark
// array and promotes its hubs. Every pass is O(m + n), and the result is
// the graph the AddEdge loop builds, down to neighbor order, list
// capacities and hub maps; invalid input falls back to that loop for its
// error.
package graph

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrSelfLoop is returned when an edge (v, v) is added.
var ErrSelfLoop = errors.New("graph: self loops are not supported")

// ErrDuplicateEdge is returned when an already-present edge is added.
var ErrDuplicateEdge = errors.New("graph: edge already present")

// ErrMissingEdge is returned when a non-existent edge is removed.
var ErrMissingEdge = errors.New("graph: edge not present")

// ErrVertexRange is returned for negative vertex identifiers.
var ErrVertexRange = errors.New("graph: vertex id must be non-negative")

// IndexThreshold is the degree at which a vertex's adjacency gains a map
// position index. Below it, HasEdge/removeArc scan the adjacency slice: at
// most 256 int32 compares over 1 KB of contiguous lines that the caller
// touches next anyway (AddEdge's append, the core maintainer's Neighbors
// loops), while a map probe pays dependent cache misses of its own. In 15
// round-robin rounds on 2 CPUs, time per batch of pokec-sim batch churn
// against threshold 32 read 0.88, 0.86, 0.86 and 0.83 at thresholds 128,
// 256, 512 and 1024 (1024: no maps at all), and a livejournal-sim
// remove/re-add cycle read 0.95, 0.94, 0.91 and 0.92 (medians; the rounds
// spread more than these differ). 256 is as fast as any of them and keeps
// removal and membership O(1) at the biggest hubs, where a scan would read
// up to 26 KB (livejournal-sim's degree 6,564). Promotion is sticky: once
// a hub, always a hub, so a vertex oscillating around the threshold never
// thrashes (re)building its index.
const IndexThreshold = 256

// Undirected is a mutable simple undirected graph (no self loops, no
// parallel edges). The zero value is an empty graph ready to use.
//
// Undirected is not safe for concurrent mutation; wrap it (or use the public
// kcore API) if you need synchronization.
type Undirected struct {
	adj [][]int32         // adjacency lists, insertion ordered
	pos []map[int32]int32 // pos[v][w] = index of w in adj[v]; nil until v crosses IndexThreshold
	m   int               // number of edges
}

// New returns a graph with n isolated vertices 0..n-1.
func New(n int) *Undirected {
	g := &Undirected{}
	g.EnsureVertex(n - 1)
	return g
}

// fillWorkers caps the goroutines FromEdges fills lists with: each reads
// the whole edge list, so the cap bounds that repeated read. fillGrain is
// the edges each worker needs: on 2 CPUs a second worker lost below about
// 10,000 edges, tied from 16,000 to 64,000 and saved a quarter at 420,000.
const (
	fillWorkers = 4
	fillGrain   = 1 << 14
)

// FromEdges returns the graph that New(n) followed by AddEdge on each edge
// in order would build: the same vertex count, neighbor order, list
// capacities and hub indexes. It builds it with no membership probe (see
// the package doc); bad is -1. When the list holds a negative id, a self
// loop or a duplicate edge, FromEdges runs that AddEdge loop instead and
// returns the index of the first edge AddEdge refuses and its error, so
// every error is AddEdge's.
func FromEdges(n int, edges [][2]int) (g *Undirected, bad int, err error) {
	return fromEdges(n, edges, min(runtime.GOMAXPROCS(0), fillWorkers, len(edges)/fillGrain))
}

// fromEdges is FromEdges with the lists filled by w goroutines (at least
// one), each over its own contiguous range of vertices, cut where the
// degree sum reaches each worker's share of the 2m arcs.
func fromEdges(n int, edges [][2]int, w int) (g *Undirected, bad int, err error) {
	// Pass 1: degrees, and the vertex count New plus EnsureVertex gives.
	deg := make([]int32, max(n, 0))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u == v {
			return insertEach(n, edges)
		}
		if hi := max(u, v); hi >= len(deg) {
			deg = append(deg, make([]int32, hi+1-len(deg))...)
		}
		deg[u]++
		deg[v]++
	}
	// Each list gets, in one allocation, the capacity appending its degree
	// one neighbor at a time leaves, so later insertions regrow it exactly
	// as they would after AddEdge. capAt records those capacities by
	// appending to one list up to the largest degree.
	var maxDeg int32
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	capAt := make([]int32, maxDeg+1)
	var grown []int32
	for d := 1; d < len(capAt); d++ {
		grown = append(grown, 0)
		capAt[d] = int32(cap(grown))
	}
	g = &Undirected{adj: make([][]int32, len(deg)), pos: make([]map[int32]int32, len(deg)), m: len(edges)}
	w = max(w, 1)
	bounds := make([]int, w+1) // worker i fills bounds[i] .. bounds[i+1]-1
	arcs, cut := 0, 1
	for v, d := range deg {
		for ; cut < w && arcs*w >= 2*len(edges)*cut; cut++ {
			bounds[cut] = v
		}
		arcs += int(d)
	}
	for ; cut <= w; cut++ {
		bounds[cut] = len(deg)
	}
	ok := make([]bool, w)
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok[i] = g.fill(edges, deg, capAt, bounds[i], bounds[i+1])
		}()
	}
	ok[0] = g.fill(edges, deg, capAt, bounds[0], bounds[1])
	wg.Wait()
	for _, o := range ok {
		if !o {
			return insertEach(n, edges)
		}
	}
	return g, -1, nil
}

// fill builds the lists of vertices lo..hi-1: it allocates each at capAt
// of its degree, appends its arcs in input order (pass 2), then stamps
// each list's neighbors with its vertex in a stamp array of its own, so a
// neighbor found already stamped is a second edge between the two,
// whichever way round either was written (pass 3), and promotes the lists
// longer than IndexThreshold. It reports false on a duplicate edge.
func (g *Undirected) fill(edges [][2]int, deg, capAt []int32, lo, hi int) bool {
	for v := lo; v < hi; v++ {
		if d := deg[v]; d > 0 {
			g.adj[v] = make([]int32, 0, capAt[d])
		}
	}
	span := uint(hi - lo)
	for _, e := range edges {
		u, v := e[0], e[1]
		if uint(u-lo) < span {
			g.adj[u] = append(g.adj[u], int32(v))
		}
		if uint(v-lo) < span {
			g.adj[v] = append(g.adj[v], int32(u))
		}
	}
	stamp := make([]int32, len(g.adj))
	for u := lo; u < hi; u++ {
		s := int32(u + 1)
		for _, w := range g.adj[u] {
			if stamp[w] == s {
				return false
			}
			stamp[w] = s
		}
		if len(g.adj[u]) > IndexThreshold {
			g.promote(u)
		}
	}
	return true
}

// insertEach is FromEdges on invalid input: New(n) and AddEdge on each edge
// in order, stopping at the first edge AddEdge refuses.
func insertEach(n int, edges [][2]int) (*Undirected, int, error) {
	g := New(n)
	for i, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, i, err
		}
	}
	return g, -1, nil
}

// NumVertices reports the number of vertices (max vertex id + 1).
func (g *Undirected) NumVertices() int { return len(g.adj) }

// NumEdges reports the number of edges.
func (g *Undirected) NumEdges() int { return g.m }

// EnsureVertex grows the vertex set so that v is a valid vertex.
// It is a no-op when v already exists or is negative.
func (g *Undirected) EnsureVertex(v int) {
	for len(g.adj) <= v {
		g.adj = append(g.adj, nil)
		g.pos = append(g.pos, nil)
	}
}

// AddVertex appends a fresh isolated vertex and returns its id.
func (g *Undirected) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.pos = append(g.pos, nil)
	return len(g.adj) - 1
}

// HasVertex reports whether v is a valid vertex id.
func (g *Undirected) HasVertex(v int) bool { return v >= 0 && v < len(g.adj) }

// Degree returns the degree of v (0 for unknown vertices).
func (g *Undirected) Degree(v int) int {
	if !g.HasVertex(v) {
		return 0
	}
	return len(g.adj[v])
}

// HasEdge reports whether the edge (u, v) is present.
func (g *Undirected) HasEdge(u, v int) bool {
	if !g.HasVertex(u) || !g.HasVertex(v) || u == v {
		return false
	}
	// Arcs are mirrored, so either endpoint answers. Prefer an existing map
	// index; otherwise scan the shorter adjacency slice.
	if p := g.pos[u]; p != nil {
		_, ok := p[int32(v)]
		return ok
	}
	if p := g.pos[v]; p != nil {
		_, ok := p[int32(u)]
		return ok
	}
	a, b := u, v
	if len(g.adj[b]) < len(g.adj[a]) {
		a, b = b, a
	}
	w := int32(b)
	for _, x := range g.adj[a] {
		if x == w {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge (u, v), growing the vertex set as
// needed. It returns ErrSelfLoop, ErrVertexRange, or ErrDuplicateEdge on
// invalid input.
func (g *Undirected) AddEdge(u, v int) error {
	if u < 0 || v < 0 {
		return ErrVertexRange
	}
	if u == v {
		return ErrSelfLoop
	}
	g.EnsureVertex(max(u, v))
	if g.HasEdge(u, v) {
		return ErrDuplicateEdge
	}
	g.addArc(u, v)
	g.addArc(v, u)
	g.m++
	return nil
}

// RemoveEdge deletes the undirected edge (u, v). It returns ErrMissingEdge
// when the edge is absent.
func (g *Undirected) RemoveEdge(u, v int) error {
	if !g.HasEdge(u, v) {
		return ErrMissingEdge
	}
	g.removeArc(u, v)
	g.removeArc(v, u)
	g.m--
	return nil
}

func (g *Undirected) addArc(u, v int) {
	if p := g.pos[u]; p != nil {
		p[int32(v)] = int32(len(g.adj[u]))
	}
	g.adj[u] = append(g.adj[u], int32(v))
	if g.pos[u] == nil && len(g.adj[u]) > IndexThreshold {
		g.promote(u)
	}
}

// promote builds the map position index for hub vertex u. The map is sized
// for twice the degree at which addArc promotes, whatever u's degree, so a
// hub's map is the same size whether it grew arc by arc or FromEdges built
// it.
func (g *Undirected) promote(u int) {
	p := make(map[int32]int32, 2*(IndexThreshold+1))
	for i, w := range g.adj[u] {
		p[w] = int32(i)
	}
	g.pos[u] = p
}

func (g *Undirected) removeArc(u, v int) {
	var i int32
	if p := g.pos[u]; p != nil {
		i = p[int32(v)]
	} else {
		w := int32(v)
		for j, x := range g.adj[u] {
			if x == w {
				i = int32(j)
				break
			}
		}
	}
	// Swap-remove: the last neighbor fills the vacated slot.
	last := int32(len(g.adj[u]) - 1)
	w := g.adj[u][last]
	g.adj[u][i] = w
	if p := g.pos[u]; p != nil {
		p[w] = i
		delete(p, int32(v))
	}
	g.adj[u] = g.adj[u][:last]
}

// Neighbors returns the adjacency list of v as int32 ids.
//
// Aliasing contract: the returned slice aliases the graph's internal
// storage and is valid only until the next mutation of the graph. Callers
// must not modify it, and must not add or remove edges while iterating it —
// a removal swap-moves the last neighbor into the vacated slot (reordering
// and shrinking the slice in place), and an insertion may reallocate it.
// Use AppendNeighbors for a copy that survives mutation.
func (g *Undirected) Neighbors(v int) []int32 {
	if !g.HasVertex(v) {
		return nil
	}
	return g.adj[v]
}

// AppendNeighbors appends the neighbors of v to dst and returns it. The
// result is safe against subsequent graph mutation.
func (g *Undirected) AppendNeighbors(dst []int, v int) []int {
	for _, w := range g.Neighbors(v) {
		dst = append(dst, int(w))
	}
	return dst
}

// ForEachEdge invokes fn(u, v) once per edge with u < v. Iteration order is
// deterministic given the mutation history. fn must not mutate the graph.
func (g *Undirected) ForEachEdge(fn func(u, v int)) {
	for u := range g.adj {
		for _, w := range g.adj[u] {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Edges returns all edges as [2]int pairs with u < v.
func (g *Undirected) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	g.ForEachEdge(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

// MaxDegree returns the maximum vertex degree (0 for empty graphs).
func (g *Undirected) MaxDegree() int {
	md := 0
	for v := range g.adj {
		if len(g.adj[v]) > md {
			md = len(g.adj[v])
		}
	}
	return md
}

// AvgDegree returns 2m/n, the average degree (0 for empty graphs).
func (g *Undirected) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// Clone returns a deep copy of the graph.
func (g *Undirected) Clone() *Undirected {
	c := &Undirected{
		adj: make([][]int32, len(g.adj)),
		pos: make([]map[int32]int32, len(g.pos)),
		m:   g.m,
	}
	for v := range g.adj {
		if len(g.adj[v]) > 0 {
			c.adj[v] = append([]int32(nil), g.adj[v]...)
		}
		if g.pos[v] != nil {
			c.pos[v] = make(map[int32]int32, len(g.pos[v]))
			for k, i := range g.pos[v] {
				c.pos[v][k] = i
			}
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true). Vertex ids are preserved; vertices outside keep become
// isolated.
func (g *Undirected) InducedSubgraph(keep []bool) *Undirected {
	s := New(g.NumVertices())
	g.ForEachEdge(func(u, v int) {
		if u < len(keep) && v < len(keep) && keep[u] && keep[v] {
			if err := s.AddEdge(u, v); err != nil {
				panic(fmt.Sprintf("graph: induced subgraph internal error: %v", err))
			}
		}
	})
	return s
}

// Equal reports whether g and h have the same vertex count and edge set.
func (g *Undirected) Equal(h *Undirected) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	equal := true
	g.ForEachEdge(func(u, v int) {
		if !h.HasEdge(u, v) {
			equal = false
		}
	})
	return equal
}
