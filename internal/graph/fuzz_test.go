package graph

import (
	"errors"
	"slices"
	"testing"
)

// adjModel is the naive reference for FuzzGraphOps: plain adjacency slices
// with no index, append on add and swap-remove on remove, which is the
// neighbor order Undirected documents.
type adjModel [][]int32

func (m adjModel) find(u, v int) int {
	return slices.Index(m[u], int32(v))
}

func (m adjModel) removeArc(u, v int) {
	i, last := m.find(u, v), len(m[u])-1
	m[u][i] = m[u][last]
	m[u] = m[u][:last]
}

// FuzzGraphOps decodes the fuzz input as edge additions and removals over a
// small id range and checks the graph after every op against adjModel: the
// op's error, HasEdge for the op's pair, both endpoints' Degree and exact
// Neighbors order, and NumEdges. The graph starts as a star whose hub sits
// at IndexThreshold, one arc short of promotion, and every op has even odds
// of touching the hub, so streams take it across the threshold in both
// directions; after the stream every map index must match its slice.
//
// Each op is three bytes a, b, c: bit 0 of a selects remove, bit 1 puts the
// hub at u, and bits 2 and 3 are the ninth bits of u (from b) and v (from c).
func FuzzGraphOps(f *testing.F) {
	const n = IndexThreshold + 8
	hubOp := func(remove bool, v int) []byte {
		a := byte(2)
		if remove {
			a |= 1
		}
		if v >= 256 {
			a |= 8
		}
		return []byte{a, 0, byte(v)}
	}
	f.Add([]byte{})
	// Promote the hub, fall below the threshold, climb back past it.
	var seed []byte
	seed = append(seed, hubOp(false, IndexThreshold+1)...)
	for v := 1; v <= 4; v++ {
		seed = append(seed, hubOp(true, v)...)
	}
	seed = append(seed, hubOp(false, 2)...)
	seed = append(seed, hubOp(false, IndexThreshold+2)...)
	seed = append(seed, hubOp(false, 3)...)
	f.Add(seed)
	// Leaf-to-leaf edges (the scan path), a duplicate, a missing removal
	// and a self loop.
	f.Add([]byte{0, 5, 9, 0, 9, 5, 1, 5, 9, 1, 5, 9, 0, 7, 7, 4, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := New(n)
		model := make(adjModel, n)
		for v := 1; v <= IndexThreshold; v++ {
			if err := g.AddEdge(0, v); err != nil {
				t.Fatal(err)
			}
			model[0] = append(model[0], int32(v))
			model[v] = append(model[v], 0)
		}
		edges := IndexThreshold
		for ; len(data) >= 3; data = data[3:] {
			a, b, c := data[0], data[1], data[2]
			u := (int(b) | int(a>>2&1)<<8) % n
			if a&2 != 0 {
				u = 0
			}
			v := (int(c) | int(a>>3&1)<<8) % n
			remove := a&1 != 0
			present := u != v && model.find(u, v) >= 0
			var err, want error
			switch {
			case remove:
				err = g.RemoveEdge(u, v)
				if !present {
					want = ErrMissingEdge
				} else {
					model.removeArc(u, v)
					model.removeArc(v, u)
					edges--
				}
			default:
				err = g.AddEdge(u, v)
				switch {
				case u == v:
					want = ErrSelfLoop
				case present:
					want = ErrDuplicateEdge
				default:
					model[u] = append(model[u], int32(v))
					model[v] = append(model[v], int32(u))
					edges++
				}
			}
			if !errors.Is(err, want) || (want == nil) != (err == nil) {
				t.Fatalf("remove=%v (%d,%d): error %v, want %v", remove, u, v, err, want)
			}
			has := u != v && model.find(u, v) >= 0
			if g.HasEdge(u, v) != has || g.HasEdge(v, u) != has {
				t.Fatalf("remove=%v (%d,%d): HasEdge %v/%v, want %v",
					remove, u, v, g.HasEdge(u, v), g.HasEdge(v, u), has)
			}
			for _, x := range []int{u, v} {
				if g.Degree(x) != len(model[x]) || !slices.Equal(g.Neighbors(x), model[x]) {
					t.Fatalf("remove=%v (%d,%d): Neighbors(%d) = %v, want %v",
						remove, u, v, x, g.Neighbors(x), model[x])
				}
			}
			if g.NumEdges() != edges {
				t.Fatalf("remove=%v (%d,%d): NumEdges %d, want %d", remove, u, v, g.NumEdges(), edges)
			}
		}
		for v := range model {
			if !slices.Equal(g.Neighbors(v), model[v]) {
				t.Fatalf("Neighbors(%d) = %v, want %v", v, g.Neighbors(v), model[v])
			}
			p := g.pos[v]
			if p == nil {
				continue
			}
			if len(p) != len(model[v]) {
				t.Fatalf("pos[%d] has %d entries, adjacency %d", v, len(p), len(model[v]))
			}
			for i, w := range model[v] {
				if p[w] != int32(i) {
					t.Fatalf("pos[%d][%d] = %d, adjacency index %d", v, w, p[w], i)
				}
			}
		}
	})
}

// FuzzGraphFromEdges checks FromEdges against New(n) plus AddEdge on each
// edge in order, stopping at the first error: the same bad index and error,
// and on success the same vertex and edge counts, every vertex's exact
// Neighbors order and capacity, and the same hubs, each map entry holding
// its arc's index.
//
// The input's first byte is n (-64..63), the second sets the size of a star
// around hub 40 (IndexThreshold-8 .. IndexThreshold+7 leaves, ids from 41).
// Each further op is three bytes a, b, c, by a%16: 0 appends the star's
// next c%64 edges, written (hub, leaf) or, when b is odd, (leaf, hub); 1 a
// negative id; 2 a self loop; 3 a copy of an earlier edge, reversed when c
// is odd; anything else the edge (b%41, c%41), which may itself be a self
// loop or a duplicate.
func FuzzGraphFromEdges(f *testing.F) {
	const hub = 40
	f.Add([]byte{})
	f.Add([]byte{20, 0, 4, 1, 2, 5, 2, 1, 3, 0, 1})
	// A hub past the threshold with small-id edges around it, then the
	// same list with a reversed duplicate of a star edge at the end.
	full := []byte{0, 15, 4, 1, 2, 0, 0, 63, 5, 3, 4, 0, 1, 63, 0, 0, 63, 6, 40, 7, 0, 1, 63, 0, 0, 63}
	f.Add(full)
	f.Add(append(slices.Clone(full), 3, 9, 1))
	f.Add(append(slices.Clone(full), 2, 7, 0, 1, 1, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(int8(data[0])) / 2
		leaves := IndexThreshold - 8 + int(data[1]%16)
		var edges [][2]int
		next := 0 // star leaves emitted
		for data = data[2:]; len(data) >= 3; data = data[3:] {
			a, b, c := data[0], data[1], data[2]
			switch a % 16 {
			case 0:
				for k := 0; k < int(c%64) && next < leaves; k, next = k+1, next+1 {
					e := [2]int{hub, hub + 1 + next}
					if b%2 == 1 {
						e[0], e[1] = e[1], e[0]
					}
					edges = append(edges, e)
				}
			case 1:
				edges = append(edges, [2]int{int(b % 41), -1 - int(c%3)})
			case 2:
				edges = append(edges, [2]int{int(b % 41), int(b % 41)})
			case 3:
				if len(edges) > 0 {
					e := edges[int(b)%len(edges)]
					if c%2 == 1 {
						e[0], e[1] = e[1], e[0]
					}
					edges = append(edges, e)
				}
			default:
				edges = append(edges, [2]int{int(b % 41), int(c % 41)})
			}
		}

		want, wantBad, wantErr := New(n), -1, error(nil)
		for i, e := range edges {
			if err := want.AddEdge(e[0], e[1]); err != nil {
				wantBad, wantErr = i, err
				break
			}
		}
		g, bad, err := FromEdges(n, edges)
		if bad != wantBad || !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) ||
			(err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("FromEdges: bad %d, error %v; AddEdge: bad %d, error %v", bad, err, wantBad, wantErr)
		}
		if err != nil {
			if g != nil {
				t.Fatal("FromEdges returned a graph with its error")
			}
			return
		}
		if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
			t.Fatalf("n=%d m=%d, want n=%d m=%d", g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
		}
		for v := range want.NumVertices() {
			got, exp := g.Neighbors(v), want.Neighbors(v)
			if !slices.Equal(got, exp) || cap(got) != cap(exp) {
				t.Fatalf("Neighbors(%d) = %v (cap %d), want %v (cap %d)", v, got, cap(got), exp, cap(exp))
			}
			if (g.pos[v] == nil) != (want.pos[v] == nil) {
				t.Fatalf("vertex %d: hub %v, want %v", v, g.pos[v] != nil, want.pos[v] != nil)
			}
			if p := g.pos[v]; p != nil {
				if len(p) != len(exp) {
					t.Fatalf("pos[%d] has %d entries, adjacency %d", v, len(p), len(exp))
				}
				for i, w := range exp {
					if p[w] != int32(i) {
						t.Fatalf("pos[%d][%d] = %d, adjacency index %d", v, w, p[w], i)
					}
				}
			}
		}
	})
}
