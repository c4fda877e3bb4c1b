package korder

import (
	"kcore/internal/graph"
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
// of vertices the scan expanded (|V+|). A rejected edge leaves the
// maintained state, its vertex set included, unchanged.
//
// The scan pops the jump heap B in O_K order, as Algorithm 2 does, but it
// ends as soon as the candidate set VC is empty rather than when B is.
// That is exact: every vertex z still queued lies after the scan position,
// and its deg* counts the current candidates adjacent to z that precede
// it, since Case 1 adds 1 to every later level-K neighbor, an eviction
// (removeCandidates) subtracts 1 from every level-K neighbor after the scan
// position, and a Case 2b vertex, never a candidate, adds nothing. With no
// candidate left, every queued entry has deg* 0 and would be skipped. The
// root always takes Case 1 (its deg+ exceeds K), so the exit never fires
// before the root is expanded.
func (m *Maintainer) Insert(u, v int) (UpdateResult, error) {
	if u < 0 || v < 0 {
		return UpdateResult{}, graph.ErrVertexRange
	}
	if u == v {
		return UpdateResult{}, graph.ErrSelfLoop
	}
	m.EnsureVertex(u)
	m.EnsureVertex(v)
	// Preparing phase: K, root, edge, deg+ and mcd edge deltas.
	if err := m.g.AddEdge(u, v); err != nil {
		return UpdateResult{}, err
	}
	m.stats.Inserts++
	// mcd deltas use pre-update core numbers (the V* rise is accounted for
	// separately below, uniformly over all edges including this one).
	su, sv := &m.vs[u], &m.vs[v]
	if sv.core >= su.core {
		su.mcd++
	}
	if su.core >= sv.core {
		sv.mcd++
	}
	root := u
	if m.before(v, u) {
		root = v
	}
	sr := &m.vs[root]
	K := sr.core
	sr.degPlus++
	res := UpdateResult{K: int(K)}
	if sr.degPlus <= K {
		// Lemma 5.2: no core number changes; the order is still valid.
		return res, nil
	}

	// Core phase. All comparisons and rank snapshots run against the
	// unmutated O_K; physical mutations are recorded and replayed at the end.
	// aux holds deg*.
	L := m.levels[K]
	m.newEpoch()
	ep := m.epoch
	m.heap.Reset()

	vc := m.vcBuf[:0]         // candidates in discovery order (superset of V*)
	relocs := m.relocsBuf[:0] // deferred evicted-candidate moves
	visited := 0

	m.heap.Push(m.key(L, root), root)
	sr.cur(ep).flags |= fInHeap

	for {
		it, ok := m.heap.Pop()
		if !ok {
			break
		}
		w := it.V
		sw := m.vs[w].cur(ep)
		if sw.flags&(fCand|fConf) != 0 {
			continue // stale: already settled this update
		}
		sw.flags &^= fInHeap
		ds := sw.aux
		if ds == 0 && w != root {
			continue // stale: candidate support vanished (Case 2a region)
		}
		if ds+sw.degPlus > K {
			// Case 1: w is a potential member of V*.
			visited++
			sw.flags |= fCand
			vc = append(vc, w)
			for _, z32 := range m.g.Neighbors(w) {
				z := int(z32)
				sz := &m.vs[z]
				if sz.core == K && m.less(L, w, sw, z, sz) {
					sz.cur(ep).aux++
					if sz.flags&(fInHeap|fCand|fConf) == 0 {
						sz.flags |= fInHeap
						m.heap.Push(m.key(L, z), z)
					}
				}
			}
			continue
		}
		// Case 2b (ds > 0): w stays at level K; fold deg* into deg+ and
		// cascade candidate removal.
		visited++
		sw.flags |= fConf
		sw.degPlus += ds
		sw.aux = 0
		m.removeCandidates(L, w, K, &relocs)
		// Every Case 1 vertex entered vc and every eviction appended one
		// relocation, so len(vc)-len(relocs) candidates are left. With none
		// left, every queued vertex has deg* 0 (see Insert's doc), and
		// popping it would only clear its fInHeap scratch bit: stop here.
		if len(relocs) == len(vc) {
			break
		}
	}

	// Ending phase: replay deferred O_K mutations, then settle V*.
	for _, r := range relocs {
		L.Remove(r.v)
		L.InsertAfter(r.anchor, r.v)
	}
	vstar := vc[:0]
	for _, w := range vc {
		if m.vs[w].flag(ep, fCand) {
			vstar = append(vstar, w)
		}
	}
	if len(vstar) > 0 {
		m.ensureLevel(int(K) + 1)
		up := m.levels[K+1]
		for _, w := range vstar {
			L.Remove(w)
		}
		// Insert V* at the beginning of O_{K+1} preserving relative order.
		for i := len(vstar) - 1; i >= 0; i-- {
			up.PushFront(vstar[i])
		}
		for _, w := range vstar {
			m.vs[w].core = K + 1
		}
		// mcd repair for the K -> K+1 rise (DESIGN.md §2.4).
		for _, w := range vstar {
			var cnt int32
			for _, z32 := range m.g.Neighbors(w) {
				sz := &m.vs[z32]
				if sz.core >= K+1 {
					cnt++
				}
				if !sz.flag(ep, fCand) && sz.core == K+1 {
					sz.mcd++
				}
			}
			m.vs[w].mcd = cnt
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
// in the new order, each after the one evicted before it.
func (m *Maintainer) removeCandidates(L order.List, vi int, K int32, relocs *[]relocation) {
	ep := m.epoch
	queue := m.queueBuf[:0]
	// push queues a candidate whose support dropped to K or below.
	push := func(z int, sz *vstate) {
		if sz.degPlus+sz.aux <= K && sz.flags&fInQ == 0 {
			sz.flags |= fInQ
			queue = append(queue, z)
		}
	}
	for _, z32 := range m.g.Neighbors(vi) {
		z := int(z32)
		if sz := &m.vs[z]; sz.flag(ep, fCand) {
			sz.degPlus--
			push(z, sz)
		}
	}
	svi := &m.vs[vi]
	cursor := vi // last vertex settled into O'_K
	for qi := 0; qi < len(queue); qi++ {
		wp := queue[qi]
		// Evict wp: it stays at level K after all.
		sw := &m.vs[wp]
		sw.flags = sw.flags&^fCand | fConf
		sw.degPlus += sw.aux
		sw.aux = 0
		*relocs = append(*relocs, relocation{anchor: cursor, v: wp})
		cursor = wp
		for _, z32 := range m.g.Neighbors(wp) {
			z := int(z32)
			sz := &m.vs[z]
			if sz.core != K {
				continue
			}
			switch {
			case m.less(L, vi, svi, z, sz):
				// z is after the scan position: it loses one potential
				// candidate supporter.
				sz.cur(ep).aux--
			case sz.flag(ep, fCand) && m.less(L, wp, sw, z, sz):
				sz.aux--
				push(z, sz)
			case sz.flag(ep, fCand):
				sz.degPlus--
				push(z, sz)
			}
		}
	}
	m.queueBuf = queue[:0]
}
