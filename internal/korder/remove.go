package korder

import (
	"fmt"

	"kcore/internal/graph"
)

// Remove performs OrderRemoval (Algorithm 4): it deletes the edge (u, v)
// from the graph and updates core numbers, the k-order, deg+, and mcd.
// V* discovery reuses the traversal-removal peeling with cd initialized
// from the maintained mcd; the k-order is repaired by moving V* to the end
// of O_{K-1} in discovery order.
func (m *Maintainer) Remove(u, v int) (UpdateResult, error) {
	if u < 0 || u >= len(m.vs) || v < 0 || v >= len(m.vs) {
		return UpdateResult{}, errMissing(u, v)
	}
	// deg+ delta for the removed edge itself (the paper's pseudocode omits
	// this; required whenever V* is empty or excludes the earlier endpoint).
	uFirst := m.before(u, v)
	if err := m.g.RemoveEdge(u, v); err != nil {
		return UpdateResult{}, err
	}
	m.stats.Removes++
	su, sv := &m.vs[u], &m.vs[v]
	if uFirst {
		su.degPlus--
	} else {
		sv.degPlus--
	}
	// mcd deltas with pre-update core numbers (lines 3-4 of Algorithm 4).
	if sv.core >= su.core {
		su.mcd--
	}
	if su.core >= sv.core {
		sv.mcd--
	}
	K := min(su.core, sv.core)
	res := UpdateResult{K: int(K)}

	// Find V* by peeling (Section IV-B): repeatedly dispose vertices at
	// level K whose upper bound cd on neighbors in the new K-core drops
	// below K. cd is lazily initialized from the maintained mcd (cdTouch)
	// and kept in aux. vstar and stack are pooled buffers; written inline
	// rather than via dispose/touch closures, which would escape to the
	// heap per update.
	m.newEpoch()
	ep := m.epoch
	vstar := m.vstarBuf[:0]
	stack := m.stackBuf[:0]
	for _, r := range [2]int{u, v} {
		if sr := &m.vs[r]; sr.core == K && !sr.flag(ep, fInVStar) && sr.cdTouch(ep) < K {
			sr.flags |= fInVStar
			sr.core = K - 1
			vstar = append(vstar, r)
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, z32 := range m.g.Neighbors(w) {
			sz := &m.vs[z32]
			if sz.core != K || sz.flag(ep, fInVStar) {
				continue
			}
			cd := sz.cdTouch(ep) - 1
			sz.aux = cd + 1
			if cd < K {
				sz.flags |= fInVStar
				sz.core = K - 1
				vstar = append(vstar, int(z32))
				stack = append(stack, int(z32))
			}
		}
	}
	m.vstarBuf, m.stackBuf = vstar, stack[:0]
	if len(vstar) == 0 {
		return res, nil
	}

	// k-order repair (Algorithm 4 lines 6-14): move V* to the end of
	// O_{K-1} in discovery order, recomputing each deg+ and decrementing
	// deg+ of earlier same-level neighbors.
	m.ensureLevel(int(K)) // K >= 1 here: endpoints of an existing edge have core >= 1
	L := m.levels[K]
	down := m.levels[K-1]
	for _, w := range vstar {
		var dp int32
		sw := &m.vs[w]
		for _, z32 := range m.g.Neighbors(w) {
			z := int(z32)
			sz := &m.vs[z]
			if sz.core == K && m.less(L, z, sz, w, sw) {
				sz.degPlus--
			}
			if sz.core >= K || (sz.flag(ep, fInVStar) && sz.flags&fMoved == 0 && z != w) {
				dp++
			}
		}
		sw.degPlus = dp
		sw.flags |= fMoved
		L.Remove(w)
		down.PushBack(w)
	}
	// mcd repair for the K -> K-1 fall (DESIGN.md §2.4).
	for _, w := range vstar {
		var cnt int32
		for _, z32 := range m.g.Neighbors(w) {
			sz := &m.vs[z32]
			if sz.core >= K-1 {
				cnt++
			}
			if !sz.flag(ep, fInVStar) && sz.core == K {
				sz.mcd--
			}
		}
		m.vs[w].mcd = cnt
	}
	// res.Changed aliases the pooled vstarBuf until the next update (see
	// UpdateResult.Changed).
	res.Changed = vstar
	res.Visited = len(vstar)
	m.stats.ChangedRemove += int64(len(vstar))
	return res, nil
}

// cdTouch lazily initializes the peeling bound cd from the maintained mcd
// on s's first touch in epoch ep, and returns it. aux stores cd + 1, so
// that an initialized zero is distinguishable from "untouched".
func (s *vstate) cdTouch(ep uint32) int32 {
	s.cur(ep)
	if s.aux == 0 && s.flags&fInVStar == 0 {
		s.aux = s.mcd + 1
	}
	return s.aux - 1
}

func errMissing(u, v int) error {
	return fmt.Errorf("korder: edge (%d,%d): %w", u, v, graph.ErrMissingEdge)
}
