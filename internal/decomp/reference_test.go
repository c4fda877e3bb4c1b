package decomp

import (
	"math/rand/v2"
	"slices"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/graph"
)

// refBuckets is the reference peel's bucket structure: one doubly linked
// list of vertices per remaining degree, each vertex unlinked from its
// bucket and pushed onto the head of the next lower one at every
// decrement.
type refBuckets struct {
	head []int // head[d] = first vertex with degree d, or -1
	next []int
	prev []int
}

func newRefBuckets(deg []int, maxDeg int) *refBuckets {
	n := len(deg)
	b := &refBuckets{head: make([]int, maxDeg+1), next: make([]int, n), prev: make([]int, n)}
	for d := range b.head {
		b.head[d] = -1
	}
	for v := n - 1; v >= 0; v-- {
		b.push(v, deg[v])
	}
	return b
}

func (b *refBuckets) push(v, d int) {
	b.prev[v] = -1
	b.next[v] = b.head[d]
	if b.head[d] != -1 {
		b.prev[b.head[d]] = v
	}
	b.head[d] = v
}

func (b *refBuckets) remove(v, d int) {
	if b.prev[v] != -1 {
		b.next[b.prev[v]] = b.next[v]
	} else {
		b.head[d] = b.next[v]
	}
	if b.next[v] != -1 {
		b.prev[b.next[v]] = b.prev[v]
	}
}

// refKOrder is Algorithm 1 on doubly linked bucket lists, each decrement
// an unlink and a push onto the list below: the oracle of KOrder's removal
// order. The same heuristic and seed must give the same Core, Order, Pos,
// DegPlus and MaxCore. It computes no mcd.
func refKOrder(g *graph.Undirected, h Heuristic, seed uint64) *Decomposition {
	n := g.NumVertices()
	dec := &Decomposition{
		Core:    make([]int, n),
		Order:   make([]int, 0, n),
		Pos:     make([]int, n),
		DegPlus: make([]int, n),
	}
	if n == 0 {
		return dec
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		maxDeg = max(maxDeg, deg[v])
	}
	bq := newRefBuckets(deg, maxDeg)
	removed := make([]bool, n)

	var rng *rand.Rand
	var pool []int
	var inPool []bool
	if h == RandomDegPlusFirst {
		rng = rand.New(rand.NewPCG(seed, seed^0xa5a5a5a5))
		inPool = make([]bool, n)
	}
	k := 1
	minCursor := 0
	selectVictim := func() int {
		switch h {
		case SmallDegPlusFirst:
			for minCursor < k {
				if v := bq.head[minCursor]; v != -1 {
					return v
				}
				minCursor++
			}
			return -1
		case LargeDegPlusFirst:
			for d := min(k-1, maxDeg); d >= 0; d-- {
				if v := bq.head[d]; v != -1 {
					return v
				}
			}
			return -1
		default: // RandomDegPlusFirst
			for len(pool) > 0 {
				i := rng.IntN(len(pool))
				v := pool[i]
				pool[i] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				inPool[v] = false
				if !removed[v] && deg[v] < k {
					return v
				}
			}
			return -1
		}
	}
	addCandidates := func(d int) {
		if h != RandomDegPlusFirst || d > maxDeg {
			return
		}
		for v := bq.head[d]; v != -1; v = bq.next[v] {
			if !inPool[v] {
				inPool[v] = true
				pool = append(pool, v)
			}
		}
	}
	addCandidates(0)

	for len(dec.Order) < n {
		u := selectVictim()
		if u == -1 {
			addCandidates(k)
			k++
			continue
		}
		removed[u] = true
		bq.remove(u, deg[u])
		dec.Core[u] = k - 1
		dec.DegPlus[u] = deg[u]
		dec.Pos[u] = len(dec.Order)
		dec.Order = append(dec.Order, u)
		dec.MaxCore = max(dec.MaxCore, k-1)
		for _, w32 := range g.Neighbors(u) {
			w := int(w32)
			if removed[w] {
				continue
			}
			bq.remove(w, deg[w])
			bq.push(w, deg[w]-1)
			deg[w]--
			minCursor = min(minCursor, deg[w])
			if h == RandomDegPlusFirst && deg[w] < k && !inPool[w] {
				inPool[w] = true
				pool = append(pool, w)
			}
		}
	}
	return dec
}

var heuristics = []Heuristic{SmallDegPlusFirst, LargeDegPlusFirst, RandomDegPlusFirst}

// sameDecomposition reports the first field in which got differs from the
// reference want, or "".
func sameDecomposition(got, want *Decomposition) string {
	switch {
	case !slices.Equal(got.Core, want.Core):
		return "Core"
	case !slices.Equal(got.Order, want.Order):
		return "Order"
	case !slices.Equal(got.Pos, want.Pos):
		return "Pos"
	case !slices.Equal(got.DegPlus, want.DegPlus):
		return "DegPlus"
	case got.MaxCore != want.MaxCore:
		return "MaxCore"
	}
	return ""
}

// TestKOrderMatchesReference runs KOrder and the linked-list reference on
// generated graphs of the three shapes the reproductions use, under every
// heuristic and a few seeds, and requires bit-identical decompositions.
func TestKOrderMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Undirected
	}{
		{"ba", gen.BarabasiAlbert(3000, 6, 1)},
		{"er", gen.ErdosRenyi(3000, 12000, 2)},
		{"rmat", gen.RMAT(12, 20000, 0.57, 0.19, 0.19, 3)},
	}
	for _, tc := range graphs {
		for _, h := range heuristics {
			for _, seed := range []uint64{0, 1, 99} {
				got, want := KOrder(tc.g, h, seed), refKOrder(tc.g, h, seed)
				if field := sameDecomposition(got, want); field != "" {
					t.Fatalf("%s, %v, seed %d: %s differs from the reference", tc.name, h, seed, field)
				}
			}
		}
	}
}

// FuzzKOrder decodes the input as an edge list over up to 48 ids (one
// byte each for u and v; self loops and repeats skipped), with a vertex
// count that may leave high ids isolated, and a heuristic and seed. KOrder
// must reproduce the linked-list reference bit for bit, and its mcd must
// equal ComputeMCD's.
func FuzzKOrder(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint64(0), []byte{0, 1, 1, 2, 2, 0, 2, 3})
	f.Add(uint8(12), uint8(1), uint64(5), []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5})
	f.Add(uint8(48), uint8(2), uint64(7), []byte{9, 3, 3, 17, 17, 9, 40, 41, 41, 42, 42, 40, 40, 9})
	f.Add(uint8(0), uint8(2), uint64(1), []byte{})
	f.Fuzz(func(t *testing.T, nb, hb uint8, seed uint64, data []byte) {
		const ids = 48
		g := graph.New(int(nb) % (ids + 1))
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])%ids, int(data[i+1])%ids
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		h := heuristics[int(hb)%len(heuristics)]
		got, want := KOrder(g, h, seed), refKOrder(g, h, seed)
		if field := sameDecomposition(got, want); field != "" {
			t.Fatalf("%v, seed %d, edges %v: %s differs from the reference\n got %+v\nwant %+v",
				h, seed, g.Edges(), field, got, want)
		}
		if mcd := ComputeMCD(g, got.Core); !slices.Equal(got.MCD, mcd) {
			t.Fatalf("%v, seed %d, edges %v: MCD %v, ComputeMCD %v", h, seed, g.Edges(), got.MCD, mcd)
		}
	})
}
