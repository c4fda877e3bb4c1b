// Package decomp implements static core decomposition (Algorithm 1 of the
// paper, the O(m+n) algorithm of Batagelj and Zaversnik), generation of the
// initial k-order under the paper's three heuristics (Section VI), and the
// subcore / pure-core / order-core statistics of Figure 5.
//
// KOrder is one pass: its degree buckets are LIFO stacks with lazy
// deletion, so a decrement is one push with no unlink, and the scan that
// removes a vertex also counts its mcd, so the maintainer needs no second
// O(m) pass (ComputeMCD stays as the oracle).
package decomp

import (
	"fmt"
	"math/rand/v2"

	"kcore/internal/graph"
)

// Heuristic selects the tie-breaking rule used by k-order generation when
// several vertices are removable (Section VI, Fig. 9).
type Heuristic int

const (
	// SmallDegPlusFirst removes a removable vertex of minimum remaining
	// degree first. This is the paper's recommended heuristic.
	SmallDegPlusFirst Heuristic = iota
	// LargeDegPlusFirst removes a removable vertex of maximum remaining
	// degree first.
	LargeDegPlusFirst
	// RandomDegPlusFirst removes a removable vertex chosen uniformly at
	// random.
	RandomDegPlusFirst
)

// String returns the paper's name for the heuristic.
func (h Heuristic) String() string {
	switch h {
	case SmallDegPlusFirst:
		return "small deg+ first"
	case LargeDegPlusFirst:
		return "large deg+ first"
	case RandomDegPlusFirst:
		return "random deg+ first"
	default:
		return "unknown"
	}
}

// Decomposition is the result of running core decomposition while recording
// the removal order (the initial k-order) and the remaining degree of each
// vertex at removal time (its initial deg+).
type Decomposition struct {
	// Core holds the core number of every vertex.
	Core []int
	// Order lists all vertices in k-order (removal order of Algorithm 1).
	Order []int
	// Pos is the inverse of Order: Pos[Order[i]] = i.
	Pos []int
	// DegPlus holds deg+(v): the remaining degree of v when removed.
	DegPlus []int
	// MCD holds mcd(v), the neighbors w with core(w) >= core(v): the
	// same values as ComputeMCD, counted during the peel.
	MCD []int
	// MaxCore is the degeneracy of the graph (max core number).
	MaxCore int
}

// Cores computes the core number of every vertex in O(m+n).
func Cores(g *graph.Undirected) []int {
	return KOrder(g, SmallDegPlusFirst, 0).Core
}

// Degeneracy returns the maximum core number of g.
func Degeneracy(g *graph.Undirected) int {
	return KOrder(g, SmallDegPlusFirst, 0).MaxCore
}

// buckets holds the vertices of each remaining degree d as a LIFO stack,
// stack[lo[d]:top[d]], newest on top. An entry goes stale when its vertex
// leaves the bucket, by removal or by a decrement that pushes it onto the
// stack below, and is dropped only when it surfaces (lazy deletion).
// Degrees only fall, so a vertex enters each bucket at most once, bucket d
// receives at most the vertices of degree >= d, and the newest live entry
// of a stack is the head a doubly linked bucket list would hold: every
// heuristic removes the vertices in the same order it would.
type buckets struct {
	deg     []int32 // remaining degree; ^core once removed
	stack   []int32
	lo, top []int
}

func newBuckets(g *graph.Undirected) *buckets {
	n := g.NumVertices()
	deg := make([]int32, n)
	maxDeg := 0
	for v := range deg {
		deg[v] = int32(g.Degree(v))
		maxDeg = max(maxDeg, int(deg[v]))
	}
	atLeast := make([]int, maxDeg+1) // atLeast[d] = vertices of degree >= d
	for _, d := range deg {
		atLeast[d]++
	}
	for d := maxDeg - 1; d >= 0; d-- {
		atLeast[d] += atLeast[d+1]
	}
	b := &buckets{deg: deg, lo: make([]int, maxDeg+1), top: make([]int, maxDeg+1)}
	off := 0
	for d, c := range atLeast {
		b.lo[d], b.top[d] = off, off
		off += c
	}
	b.stack = make([]int32, off)
	for v := n - 1; v >= 0; v-- {
		b.push(int32(v), deg[v])
	}
	return b
}

func (b *buckets) push(v, d int32) {
	b.stack[b.top[d]] = v
	b.top[d]++
}

// head returns the newest vertex of remaining degree d, or -1, dropping the
// stale entries above it.
func (b *buckets) head(d int) int {
	lo, t := b.lo[d], b.top[d]
	for t > lo && b.deg[b.stack[t-1]] != int32(d) {
		t--
	}
	b.top[d] = t
	if t == lo {
		return -1
	}
	return int(b.stack[t-1])
}

// KOrder runs Algorithm 1 recording the removal order, producing an initial
// k-order, core numbers, and initial deg+ and mcd values. The heuristic
// decides which removable vertex (deg < k) is removed first; seed drives
// the random heuristic (ignored by the deterministic ones).
//
// mcd comes from the peel itself: the level k never falls, so when v is
// removed its remaining neighbors all end at v's core or above (deg+(v) of
// them), and of the removed ones exactly those removed at v's own level
// count too. Both are seen in the neighbor scan that removes v.
func KOrder(g *graph.Undirected, h Heuristic, seed uint64) *Decomposition {
	n := g.NumVertices()
	dec := &Decomposition{
		Core:    make([]int, n),
		Order:   make([]int, 0, n),
		Pos:     make([]int, n),
		DegPlus: make([]int, n),
		MCD:     make([]int, n),
	}
	if n == 0 {
		return dec
	}
	b := newBuckets(g)
	deg, maxDeg := b.deg, len(b.lo)-1

	var rng *rand.Rand
	var pool []int
	var inPool []bool
	if h == RandomDegPlusFirst {
		rng = rand.New(rand.NewPCG(seed, seed^0xa5a5a5a5))
		inPool = make([]bool, n)
	}

	// selectVictim returns a vertex with deg < k per heuristic, or -1.
	k := 1
	minCursor := 0
	selectVictim := func() int {
		switch h {
		case SmallDegPlusFirst:
			for minCursor < k {
				if v := b.head(minCursor); v != -1 {
					return v
				}
				minCursor++
			}
			return -1
		case LargeDegPlusFirst:
			for d := min(k-1, maxDeg); d >= 0; d-- {
				if v := b.head(d); v != -1 {
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
				if d := deg[v]; d >= 0 && int(d) < k {
					return v
				}
			}
			return -1
		}
	}
	// addCandidates pushes the vertices of degree d into the random pool,
	// newest first, as a bucket list would hold them.
	addCandidates := func(d int) {
		if h != RandomDegPlusFirst || d > maxDeg {
			return
		}
		for t := b.top[d]; t > b.lo[d]; t-- {
			if v := int(b.stack[t-1]); deg[v] == int32(d) && !inPool[v] {
				inPool[v] = true
				pool = append(pool, v)
			}
		}
	}
	addCandidates(0)

	for len(dec.Order) < n {
		u := selectVictim()
		if u == -1 {
			// No vertex with deg < k remains: move to the next core level.
			addCandidates(k)
			k++
			continue
		}
		c := k - 1
		removedAt := ^int32(c)
		dp := int(deg[u])
		deg[u] = removedAt
		mcd := dp
		for _, w := range g.Neighbors(u) {
			d := deg[w]
			if d < 0 {
				if d == removedAt {
					mcd++
				}
				continue
			}
			d--
			deg[w] = d
			b.push(w, d)
			minCursor = min(minCursor, int(d))
			if h == RandomDegPlusFirst && int(d) < k && !inPool[w] {
				inPool[w] = true
				pool = append(pool, int(w))
			}
		}
		dec.Core[u] = c
		dec.DegPlus[u] = dp
		dec.MCD[u] = mcd
		dec.Pos[u] = len(dec.Order)
		dec.Order = append(dec.Order, u)
		dec.MaxCore = max(dec.MaxCore, c)
	}
	return dec
}

// KCoreVertices returns the vertices of the k-core given core numbers.
func KCoreVertices(core []int, k int) []int {
	var out []int
	for v, c := range core {
		if c >= k {
			out = append(out, v)
		}
	}
	return out
}

// ComputeMCD returns mcd(v) = |{w in nbr(v): core(w) >= core(v)}| for every
// vertex.
func ComputeMCD(g *graph.Undirected, core []int) []int {
	n := g.NumVertices()
	mcd := make([]int, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if core[w] >= core[v] {
				mcd[v]++
			}
		}
	}
	return mcd
}

// ComputePCD returns pcd(v) = |{w in nbr(v): core(w) > core(v) or
// (core(w) == core(v) and mcd(w) > core(w))}| for every vertex.
func ComputePCD(g *graph.Undirected, core, mcd []int) []int {
	n := g.NumVertices()
	pcd := make([]int, n)
	for v := 0; v < n; v++ {
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if core[w] > core[v] || (core[w] == core[v] && mcd[w] > core[w]) {
				pcd[v]++
			}
		}
	}
	return pcd
}

// Validate checks that core is a correct core decomposition of g by
// recomputation. Test helper exported for cross-package oracles.
func Validate(g *graph.Undirected, core []int) error {
	want := Cores(g)
	if len(core) < len(want) {
		return fmt.Errorf("decomp: core slice has %d entries, graph has %d vertices", len(core), len(want))
	}
	for v, c := range want {
		if core[v] != c {
			return fmt.Errorf("decomp: core(%d) = %d, want %d", v, core[v], c)
		}
	}
	return nil
}
