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
	if u < 0 || u >= len(m.core) || v < 0 || v >= len(m.core) {
		return UpdateResult{}, errMissing(u, v)
	}
	// deg+ delta for the removed edge itself (the paper's pseudocode omits
	// this; required whenever V* is empty or excludes the earlier endpoint).
	uFirst := m.before(u, v)
	if err := m.g.RemoveEdge(u, v); err != nil {
		return UpdateResult{}, err
	}
	m.stats.Removes++
	if uFirst {
		m.degPlus[u]--
	} else {
		m.degPlus[v]--
	}
	// mcd deltas with pre-update core numbers (lines 3-4 of Algorithm 4).
	if m.core[v] >= m.core[u] {
		m.mcd[u]--
	}
	if m.core[u] >= m.core[v] {
		m.mcd[v]--
	}
	K := m.core[u]
	if m.core[v] < K {
		K = m.core[v]
	}
	res := UpdateResult{K: K}

	// Find V* by peeling (Section IV-B): repeatedly dispose vertices at
	// level K whose upper bound cd on neighbors in the new K-core drops
	// below K. cd is lazily initialized from the maintained mcd (cdTouch).
	// vstar and stack are pooled buffers; written inline rather than via
	// dispose/touch closures, which would escape to the heap per update.
	m.cd.reset()
	m.inVStar.reset()
	m.moved.reset()
	vstar := m.vstarBuf[:0]
	stack := m.stackBuf[:0]
	for _, r := range [2]int{u, v} {
		if m.core[r] == K && !m.inVStar.has(r) && m.cdTouch(r) < K {
			m.inVStar.set(r)
			m.core[r] = K - 1
			vstar = append(vstar, r)
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, z32 := range m.g.Neighbors(w) {
			z := int(z32)
			if m.core[z] != K || m.inVStar.has(z) {
				continue
			}
			cd := m.cdTouch(z) - 1
			m.cd.set(z, cd+1)
			if cd < K {
				m.inVStar.set(z)
				m.core[z] = K - 1
				vstar = append(vstar, z)
				stack = append(stack, z)
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
	m.ensureLevel(K) // K >= 1 here: endpoints of an existing edge have core >= 1
	L := m.levels[K]
	down := m.levels[K-1]
	for _, w := range vstar {
		dp := 0
		for _, z32 := range m.g.Neighbors(w) {
			z := int(z32)
			if m.core[z] == K && L.Less(z, w) {
				m.degPlus[z]--
			}
			if m.core[z] >= K || (m.inVStar.has(z) && !m.moved.has(z) && z != w) {
				dp++
			}
		}
		m.degPlus[w] = dp
		m.moved.set(w)
		L.Remove(w)
		down.PushBack(w)
	}
	// mcd repair for the K -> K-1 fall (DESIGN.md §2.4).
	for _, w := range vstar {
		cnt := 0
		for _, z32 := range m.g.Neighbors(w) {
			z := int(z32)
			if m.core[z] >= K-1 {
				cnt++
			}
			if !m.inVStar.has(z) && m.core[z] == K {
				m.mcd[z]--
			}
		}
		m.mcd[w] = cnt
	}
	// res.Changed aliases the pooled vstarBuf until the next update (see
	// UpdateResult.Changed).
	res.Changed = vstar
	res.Visited = len(vstar)
	m.stats.ChangedRemove += int64(len(vstar))
	return res, nil
}

// cdTouch lazily initializes the peeling bound cd(w) from the maintained
// mcd on first touch this update, and returns it. The stored value is
// offset by +1 so that an initialized zero is distinguishable from
// "untouched" in the epoch-stamped array.
func (m *Maintainer) cdTouch(w int) int {
	if m.cd.get(w) == 0 && !m.inVStar.has(w) {
		m.cd.set(w, m.mcd[w]+1)
	}
	return m.cd.get(w) - 1
}

func errMissing(u, v int) error {
	return fmt.Errorf("korder: edge (%d,%d): %w", u, v, graph.ErrMissingEdge)
}
