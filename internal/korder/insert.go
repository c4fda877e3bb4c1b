package korder

import (
	"kcore/internal/order"
)

// relocation records "move v right after anchor" — the deferred replay of
// Algorithm 3's append of an evicted candidate to O'_K (see DESIGN.md §2.2:
// all physical O_K mutations are deferred to the end of the core phase so
// that rank snapshots taken during the scan remain mutually consistent).
type relocation struct {
	anchor int
	v      int
}

// Insert performs OrderInsert (Algorithm 2 + Algorithm 3): it adds the edge
// (u, v) to the graph and updates core numbers, the k-order, deg+, and mcd.
// It returns the set of vertices whose core number increased and the number
// of vertices the scan expanded (|V+|).
func (m *Maintainer) Insert(u, v int) (UpdateResult, error) {
	m.EnsureVertex(u)
	m.EnsureVertex(v)
	// Preparing phase: K, root, edge, deg+ and mcd edge deltas.
	if err := m.g.AddEdge(u, v); err != nil {
		return UpdateResult{}, err
	}
	m.stats.Inserts++
	// mcd deltas use pre-update core numbers (the V* rise is accounted for
	// separately below, uniformly over all edges including this one).
	if m.core[v] >= m.core[u] {
		m.mcd[u]++
	}
	if m.core[u] >= m.core[v] {
		m.mcd[v]++
	}
	root := u
	if m.before(v, u) {
		root = v
	}
	K := m.core[root]
	m.degPlus[root]++
	res := UpdateResult{K: K}
	if m.degPlus[root] <= K {
		// Lemma 5.2: no core number changes; the order is still valid.
		return res, nil
	}

	// Core phase. All comparisons and rank snapshots run against the
	// unmutated O_K; physical mutations are recorded and replayed at the end.
	L := m.levels[K]
	m.degStar.reset()
	m.cand.reset()
	m.conf.reset()
	m.inHeap.reset()
	m.inQ.reset()
	m.heap.Reset()

	vc := m.vcBuf[:0]         // candidates in discovery order (superset of V*)
	relocs := m.relocsBuf[:0] // deferred evicted-candidate moves
	cursor := -1              // last vertex settled into O'_K (Case 2b anchor)
	visited := 0

	m.heap.Push(L.Key(root), root)
	m.inHeap.set(root)

	for {
		it, ok := m.heap.Pop()
		if !ok {
			break
		}
		w := it.V
		if m.cand.has(w) || m.conf.has(w) {
			continue // stale: already settled this update
		}
		m.inHeap.clear(w)
		ds := m.degStar.get(w)
		if ds == 0 && w != root {
			continue // stale: candidate support vanished (Case 2a region)
		}
		if ds+m.degPlus[w] > K {
			// Case 1: w is a potential member of V*.
			visited++
			m.cand.set(w)
			vc = append(vc, w)
			for _, z32 := range m.g.Neighbors(w) {
				z := int(z32)
				if m.core[z] == K && L.Less(w, z) {
					m.degStar.add(z, 1)
					if !m.inHeap.has(z) && !m.cand.has(z) && !m.conf.has(z) {
						m.inHeap.set(z)
						m.heap.Push(L.Key(z), z)
					}
				}
			}
			continue
		}
		// Case 2b (ds > 0, or the root with insufficient support): w stays
		// at level K; fold deg* into deg+ and cascade candidate removal.
		visited++
		m.conf.set(w)
		m.degPlus[w] += ds
		m.degStar.set(w, 0)
		cursor = w
		cursor = m.removeCandidates(L, w, K, &relocs, cursor)
	}

	// Ending phase: replay deferred O_K mutations, then settle V*.
	for _, r := range relocs {
		L.Remove(r.v)
		L.InsertAfter(r.anchor, r.v)
	}
	vstar := vc[:0]
	for _, w := range vc {
		if m.cand.has(w) {
			vstar = append(vstar, w)
		}
	}
	if len(vstar) > 0 {
		m.ensureLevel(K + 1)
		up := m.levels[K+1]
		for _, w := range vstar {
			L.Remove(w)
		}
		// Insert V* at the beginning of O_{K+1} preserving relative order.
		for i := len(vstar) - 1; i >= 0; i-- {
			up.PushFront(vstar[i])
		}
		for _, w := range vstar {
			m.core[w] = K + 1
			m.degStar.set(w, 0)
		}
		// mcd repair for the K -> K+1 rise (DESIGN.md §2.4).
		for _, w := range vstar {
			cnt := 0
			for _, z32 := range m.g.Neighbors(w) {
				z := int(z32)
				if m.core[z] >= K+1 {
					cnt++
				}
				if !m.cand.has(z) && m.core[z] == K+1 {
					m.mcd[z]++
				}
			}
			m.mcd[w] = cnt
		}
	}
	// Return the pooled buffers (vstar is a compacted prefix of vc, so both
	// live in vcBuf; res.Changed aliases it until the next update).
	m.vcBuf = vc
	m.relocsBuf = relocs[:0]
	res.Changed = vstar
	res.Visited = visited
	m.stats.VisitedInsert += int64(visited)
	m.stats.ChangedInsert += int64(len(vstar))
	return res, nil
}

// removeCandidates is Algorithm 3: vi has just been confirmed to stay at
// level K; each candidate neighbor loses one unit of deg+ support, and
// candidates whose total support drops to K or below are evicted from VC
// (recursively), becoming confirmed level-K vertices placed right after vi
// in the new order. Returns the updated cursor (the last settled vertex).
func (m *Maintainer) removeCandidates(L order.List, vi, K int, relocs *[]relocation, cursor int) int {
	queue := m.queueBuf[:0]
	for _, z32 := range m.g.Neighbors(vi) {
		z := int(z32)
		if m.cand.has(z) {
			m.degPlus[z]--
			if m.degPlus[z]+m.degStar.get(z) <= K && !m.inQ.has(z) {
				m.inQ.set(z)
				queue = append(queue, z)
			}
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		wp := queue[qi]
		// Evict wp: it stays at level K after all.
		m.cand.clear(wp)
		m.conf.set(wp)
		m.degPlus[wp] += m.degStar.get(wp)
		m.degStar.set(wp, 0)
		*relocs = append(*relocs, relocation{anchor: cursor, v: wp})
		cursor = wp
		for _, z32 := range m.g.Neighbors(wp) {
			z := int(z32)
			if m.core[z] != K {
				continue
			}
			switch {
			case L.Less(vi, z):
				// z is after the scan position: it loses one potential
				// candidate supporter.
				m.degStar.add(z, -1)
			case m.cand.has(z) && L.Less(wp, z):
				m.degStar.add(z, -1)
				if m.degPlus[z]+m.degStar.get(z) <= K && !m.inQ.has(z) {
					m.inQ.set(z)
					queue = append(queue, z)
				}
			case m.cand.has(z):
				m.degPlus[z]--
				if m.degPlus[z]+m.degStar.get(z) <= K && !m.inQ.has(z) {
					m.inQ.set(z)
					queue = append(queue, z)
				}
			}
		}
	}
	m.queueBuf = queue[:0]
	return cursor
}
