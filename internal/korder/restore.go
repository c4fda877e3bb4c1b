package korder

import (
	"fmt"

	"kcore/internal/decomp"
	"kcore/internal/graph"
)

// Reseed rebuilds the maintained index from a fresh static decomposition of
// the current graph, discarding the incrementally maintained order. The
// engine's batch cost model uses it when a batch is so large that replaying
// it through per-edge maintenance would cost more than one O(m + n) peel:
// the graph is mutated wholesale first, then Reseed recomputes cores,
// k-order, deg+, and mcd, and re-allocates the per-level lists and scratch
// exactly as New would — the maintainer afterwards is indistinguishable from
// a freshly constructed one.
func (m *Maintainer) Reseed() {
	dec := decomp.KOrder(m.g, m.opts.Heuristic, m.opts.Seed)
	m.seedCtr = m.opts.Seed
	m.init(dec.Core, dec.DegPlus, decomp.ComputeMCD(m.g, dec.Core), dec.MaxCore, dec.Order)
}

// Restore builds a Maintainer directly from a claimed maintained state:
// graph, core numbers, and k-order. It is the verifier behind the engine's
// one restore path, kcore.Engine.Restore, which every snapshot load and
// follower bootstrap goes through. deg+ and mcd are not part of the claim:
// deg+ falls out of the peeling check below and mcd is recomputed from the
// verified cores, both in O(m). The claimed state is fully verified in
// O(m + n): the order must be a permutation, level-monotone, a valid
// peeling order (deg+(v) <= core(v) along the order), and every vertex must
// have at least core(v) neighbors at its own level or above — together
// these certify that core is exactly the core-number function of g, so a
// Restore that returns nil error can never install silently-wrong state. g
// must not be mutated except through the returned Maintainer afterwards.
func Restore(g *graph.Undirected, core []int, ord []int, opts Options) (*Maintainer, error) {
	n := g.NumVertices()
	if len(core) != n || len(ord) != n {
		return nil, fmt.Errorf("korder: restore: %d cores and %d order entries for %d vertices",
			len(core), len(ord), n)
	}
	seen := make([]bool, n)
	for i, v := range ord {
		if v < 0 || v >= n || seen[v] {
			return nil, fmt.Errorf("korder: restore: order is not a permutation at %d", i)
		}
		seen[v] = true
	}

	// Verification (see doc comment). Lower bound: mcd(v) >= core(v).
	for v := 0; v < n; v++ {
		if core[v] < 0 {
			return nil, fmt.Errorf("korder: restore: vertex %d has negative core %d", v, core[v])
		}
		cnt := 0
		for _, w := range g.Neighbors(v) {
			if core[w] >= core[v] {
				cnt++
			}
		}
		if cnt < core[v] {
			return nil, fmt.Errorf("korder: restore: vertex %d claims core %d with only %d strong neighbors",
				v, core[v], cnt)
		}
	}
	// Upper bound: monotone valid peeling order; record deg+ as we go.
	degPlus := make([]int, n)
	removed := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	prev := 0
	for _, v := range ord {
		if core[v] < prev {
			return nil, fmt.Errorf("korder: restore: order not level-monotone at vertex %d", v)
		}
		prev = core[v]
		if deg[v] > core[v] {
			return nil, fmt.Errorf("korder: restore: vertex %d has remaining degree %d > core %d",
				v, deg[v], core[v])
		}
		degPlus[v] = deg[v]
		removed[v] = true
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
			}
		}
	}

	m := &Maintainer{g: g, opts: opts, seedCtr: opts.Seed}
	maxCore := 0
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	m.init(core, degPlus, decomp.ComputeMCD(g, core), maxCore, ord)
	return m, nil
}
