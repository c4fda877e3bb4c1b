// Package korder implements the paper's contribution: order-based core
// maintenance. A Maintainer keeps, for an evolving undirected graph, the
// core number of every vertex, the k-order (a removal order realizable by
// the static core-decomposition algorithm), each vertex's remaining degree
// deg+ with respect to that order, and the max-core degree mcd.
//
// OrderInsert (Algorithms 2 and 3 of the paper) and OrderRemoval
// (Algorithm 4) update all of this in time proportional to a small
// neighborhood of the inserted or removed edge.
package korder

import (
	"fmt"

	"kcore/internal/decomp"
	"kcore/internal/graph"
	"kcore/internal/order"
)

// Options configures a Maintainer. The zero value is the paper's
// configuration, which the reproductions in internal/bench use.
type Options struct {
	// Heuristic selects the initial k-order generation heuristic
	// (default: small deg+ first, the paper's recommendation).
	Heuristic decomp.Heuristic
	// OrderKind selects the per-level order structure. The zero value is
	// the paper's order-statistics treap; the kcore engine passes
	// order.KindTagList by default. Both give identical results.
	OrderKind order.Kind
	// Seed drives all internal randomization deterministically.
	Seed uint64
}

// Stats accumulates per-update work counters across the Maintainer's
// lifetime. They power Figures 1, 2 and 9.
type Stats struct {
	// Inserts and Removes count maintained updates.
	Inserts int64
	Removes int64
	// VisitedInsert accumulates |V+| over insertions: the number of
	// vertices the scan expanded (Case 1 and Case 2b of Algorithm 2).
	VisitedInsert int64
	// ChangedInsert accumulates |V*| over insertions.
	ChangedInsert int64
	// ChangedRemove accumulates |V*| over removals.
	ChangedRemove int64
}

// UpdateResult describes the effect of one maintained edge update.
type UpdateResult struct {
	// K is min(core(u), core(v)) evaluated before the update.
	K int
	// Changed lists V*: the vertices whose core number changed (all by
	// +1 for insertion, -1 for removal), in the order they were settled.
	//
	// Aliasing contract: Changed aliases a scratch buffer owned by the
	// Maintainer and is valid only until the next Insert or Remove call on
	// it. Callers that retain it across updates must copy (the kcore
	// engine's Apply does; see UpdateInfo.CoreChanged).
	Changed []int
	// Visited is |V+| for insertions (vertices expanded by the scan,
	// always >= len(Changed)); for removals it equals len(Changed).
	Visited int
}

// Maintainer holds the maintained index: cores, k-order, deg+, mcd.
type Maintainer struct {
	g       *graph.Undirected
	core    []int
	degPlus []int
	mcd     []int
	arena   *order.Arena // shared node store for every per-level list
	levels  []order.List // levels[k] = O_k
	opts    Options
	seedCtr uint64

	// Per-update scratch (epoch reset).
	degStar *sparseInts
	cd      *sparseInts
	cand    *sparseFlags // in VC
	conf    *sparseFlags // confirmed staying at level K this update
	inHeap  *sparseFlags
	inQ     *sparseFlags
	inVStar *sparseFlags
	moved   *sparseFlags
	heap    order.MinHeap

	// Pooled per-update slices, reused across updates so the steady-state
	// hot path performs no heap allocations. vcBuf backs Insert's returned
	// Changed slice and vstarBuf backs Remove's (see UpdateResult.Changed
	// for the aliasing contract).
	vcBuf     []int
	vstarBuf  []int
	stackBuf  []int
	queueBuf  []int
	relocsBuf []relocation

	stats Stats
}

// New builds a Maintainer for g, computing the initial decomposition and
// k-order with the configured heuristic. g must not be mutated except
// through the Maintainer afterwards.
func New(g *graph.Undirected, opts Options) *Maintainer {
	m := &Maintainer{g: g, opts: opts, seedCtr: opts.Seed}
	dec := decomp.KOrder(g, opts.Heuristic, opts.Seed)
	n := g.NumVertices()
	m.core = dec.Core
	m.degPlus = dec.DegPlus
	m.mcd = decomp.ComputeMCD(g, dec.Core)
	m.initLevels(dec.MaxCore, dec.Order)
	m.initScratch(n)
	return m
}

// initLevels builds the per-level order lists from a global k-order. All
// levels share one arena sized for the full vertex set up front.
func (m *Maintainer) initLevels(maxCore int, ord []int) {
	m.arena = order.NewArena()
	m.arena.Reserve(len(ord))
	m.levels = make([]order.List, maxCore+1)
	for k := range m.levels {
		m.levels[k] = m.newList()
	}
	for _, v := range ord {
		m.levels[m.core[v]].PushBack(v)
	}
}

// initScratch allocates the epoch-stamped per-update working state.
func (m *Maintainer) initScratch(n int) {
	m.degStar = newSparseInts(n)
	m.cd = newSparseInts(n)
	m.cand = newSparseFlags(n)
	m.conf = newSparseFlags(n)
	m.inHeap = newSparseFlags(n)
	m.inQ = newSparseFlags(n)
	m.inVStar = newSparseFlags(n)
	m.moved = newSparseFlags(n)
}

func (m *Maintainer) newList() order.List {
	m.seedCtr++
	return order.NewListOn(m.arena, m.opts.OrderKind, m.seedCtr*0x9e3779b97f4a7c15+1)
}

// Graph returns the underlying graph (read-only for callers).
func (m *Maintainer) Graph() *graph.Undirected { return m.g }

// Core returns the current core number of v (0 for unknown vertices).
func (m *Maintainer) Core(v int) int {
	if v < 0 || v >= len(m.core) {
		return 0
	}
	return m.core[v]
}

// Cores returns a copy of all current core numbers.
func (m *Maintainer) Cores() []int {
	out := make([]int, len(m.core))
	copy(out, m.core)
	return out
}

// MaxCore returns the current degeneracy (maximum core number).
func (m *Maintainer) MaxCore() int {
	for k := len(m.levels) - 1; k >= 0; k-- {
		if m.levels[k].Len() > 0 {
			return k
		}
	}
	return 0
}

// KCore returns the vertices of the current k-core.
func (m *Maintainer) KCore(k int) []int {
	var out []int
	for v, c := range m.core {
		if c >= k {
			out = append(out, v)
		}
	}
	return out
}

// Order returns the maintained k-order as a vertex sequence (O_0 O_1 ...).
func (m *Maintainer) Order() []int {
	out := make([]int, 0, len(m.core))
	for _, l := range m.levels {
		out = append(out, order.Slice(l)...)
	}
	return out
}

// Stats returns accumulated work counters.
func (m *Maintainer) Stats() Stats { return m.stats }

// ResetStats zeroes accumulated work counters.
func (m *Maintainer) ResetStats() { m.stats = Stats{} }

// EnsureVertex grows the maintained state to include vertex v. New vertices
// are isolated: core 0, appended to O_0.
func (m *Maintainer) EnsureVertex(v int) {
	if v < 0 {
		return
	}
	m.g.EnsureVertex(v)
	for len(m.core) <= v {
		w := len(m.core)
		m.core = append(m.core, 0)
		m.degPlus = append(m.degPlus, 0)
		m.mcd = append(m.mcd, 0)
		m.ensureLevel(0)
		m.levels[0].PushBack(w)
	}
	n := len(m.core)
	m.degStar.grow(n)
	m.cd.grow(n)
	m.cand.grow(n)
	m.conf.grow(n)
	m.inHeap.grow(n)
	m.inQ.grow(n)
	m.inVStar.grow(n)
	m.moved.grow(n)
}

func (m *Maintainer) ensureLevel(k int) {
	for len(m.levels) <= k {
		m.levels = append(m.levels, m.newList())
	}
}

// before reports whether u precedes v in the maintained global k-order.
func (m *Maintainer) before(u, v int) bool {
	if m.core[u] != m.core[v] {
		return m.core[u] < m.core[v]
	}
	return m.levels[m.core[u]].Less(u, v)
}

// CheckInvariants validates the complete maintained state against
// recomputation: core numbers, level membership, the k-order property
// (Lemma 5.1), deg+ consistency with the order, and mcd. Intended for
// tests; cost is O((m+n) log n).
func (m *Maintainer) CheckInvariants() error {
	n := m.g.NumVertices()
	if len(m.core) != n {
		return fmt.Errorf("korder: state has %d vertices, graph %d", len(m.core), n)
	}
	if err := decomp.Validate(m.g, m.core); err != nil {
		return err
	}
	// Level membership.
	seen := make([]bool, n)
	for k, l := range m.levels {
		for v, ok := l.Front(); ok; v, ok = l.Next(v) {
			if seen[v] {
				return fmt.Errorf("korder: vertex %d appears in multiple levels", v)
			}
			seen[v] = true
			if m.core[v] != k {
				return fmt.Errorf("korder: vertex %d in O_%d but core %d", v, k, m.core[v])
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			return fmt.Errorf("korder: vertex %d missing from all levels", v)
		}
	}
	// deg+ consistency and Lemma 5.1 (deg+(v) <= k for v in O_k).
	for v := 0; v < n; v++ {
		dp := 0
		for _, w := range m.g.Neighbors(v) {
			if m.before(v, int(w)) {
				dp++
			}
		}
		if dp != m.degPlus[v] {
			return fmt.Errorf("korder: deg+(%d) = %d, order implies %d", v, m.degPlus[v], dp)
		}
		if dp > m.core[v] {
			return fmt.Errorf("korder: deg+(%d) = %d exceeds core %d (Lemma 5.1 violated)",
				v, dp, m.core[v])
		}
	}
	// mcd consistency.
	wantMCD := decomp.ComputeMCD(m.g, m.core)
	for v := 0; v < n; v++ {
		if m.mcd[v] != wantMCD[v] {
			return fmt.Errorf("korder: mcd(%d) = %d, want %d", v, m.mcd[v], wantMCD[v])
		}
	}
	return nil
}
