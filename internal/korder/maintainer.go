// Package korder implements the paper's contribution: order-based core
// maintenance. A Maintainer keeps, for an evolving undirected graph, the
// core number of every vertex, the k-order (a removal order realizable by
// the static core-decomposition algorithm), each vertex's remaining degree
// deg+ with respect to that order, and the max-core degree mcd.
//
// OrderInsert (Algorithms 2 and 3 of the paper) and OrderRemoval
// (Algorithm 4) update all of this in time proportional to a small
// neighborhood of the inserted or removed edge. OrderInsert's scan ends
// when its candidate set empties, not when its jump heap does: a queued
// vertex's deg* counts the live candidates adjacent to it and before it,
// so with none left every queued entry is stale (see Insert).
//
// Layout: the work of both algorithms is a scan over each visited vertex's
// neighbors, so a vertex's hot state is one 32-byte record indexed by
// vertex id, holding core, deg+, mcd, the vertex's order tag in O_core,
// and the update's scratch (candidate, heap, queue and V* flags in one
// byte; deg* or cd in one integer). The scratch of every vertex is reset at
// once by bumping a single 32-bit epoch per update; a wrap of the epoch
// clears every record's stamp. The per-level order lists keep their links
// on one order.Arena, whose nodes are also indexed by vertex id, and their
// tags in the records (a TagStore over vs). A neighbor test such as
// core(z) == K && z after w in O_K therefore reads z's record only: it
// compares two tags, with no call into the list and no arena read. The
// treap kind (Options.OrderKind) keeps no tags and asks its list instead.
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
	// the paper's order-statistics treap; the kcore engine always passes
	// order.KindTagList. Both give identical results
	// (TestOrderStructuresAgree).
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
//
// Every vertex's hot state is one record in vs, indexed by vertex id: its
// core number, deg+, mcd and order tag, and the per-update scratch of
// OrderInsert and OrderRemoval (see vstate). One scratch epoch, bumped once
// per update, resets every record's scratch. With tag lists (the engine's
// kind), a neighbor visit in the maintenance scans therefore reads one
// record, its order comparison included; the list links in the order arena
// (order.Arena, also indexed by vertex id) are touched only when a vertex
// moves.
type Maintainer struct {
	g       *graph.Undirected
	vs      []vstate     // per-vertex record, indexed by vertex id
	epoch   uint32       // current scratch epoch (see vstate)
	arena   *order.Arena // shared node store for every per-level list
	levels  []order.List // levels[k] = O_k
	opts    Options
	seedCtr uint64
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

// vstate is one vertex's record: 32 bytes, two to a 64-byte cache line.
// core, degPlus, mcd and tag are the maintained state. tag is the vertex's
// order tag in its level list O_core, written only by that list (through
// recordTags) and meaningful only for the tag-list kind: within one level,
// tag order is list order, so the scans compare two records' tags instead
// of calling the list. aux, ep and flags are per-update scratch: they count
// only while ep equals the Maintainer's epoch, and read as zero otherwise.
// Each update that needs scratch starts a new epoch (newEpoch), which
// resets every vertex's scratch in O(1); a record is re-zeroed lazily when
// first touched in the new epoch (cur).
type vstate struct {
	tag     uint64
	core    int32
	degPlus int32
	mcd     int32
	aux     int32  // scratch: deg* during Insert, cd+1 during Remove
	ep      uint32 // the epoch aux and flags belong to
	flags   uint8  // scratch flag bits (fCand, ...)
}

// Scratch flag bits of vstate.flags.
const (
	fCand    uint8 = 1 << iota // Insert: in VC, a candidate for V*
	fConf                      // Insert: confirmed to stay at level K
	fInHeap                    // Insert: queued in the jump heap B
	fInQ                       // Insert: queued for eviction from VC
	fInVStar                   // Remove: in V*
	fMoved                     // Remove: already moved to O_{K-1}
)

// flag reports whether s carries flag f in epoch ep.
func (s *vstate) flag(ep uint32, f uint8) bool { return s.ep == ep && s.flags&f != 0 }

// cur returns s with its scratch belonging to epoch ep, zeroing flags and
// aux on the first touch in that epoch.
func (s *vstate) cur(ep uint32) *vstate {
	if s.ep != ep {
		s.ep, s.flags, s.aux = ep, 0, 0
	}
	return s
}

// newEpoch starts a fresh scratch epoch for an update. When the 32-bit
// counter wraps, every record's stamp is cleared first, so that no stamp
// left from 2^32 epochs ago can match a reused epoch.
func (m *Maintainer) newEpoch() {
	m.epoch++
	if m.epoch == 0 {
		for i := range m.vs {
			m.vs[i].ep = 0
		}
		m.epoch = 1
	}
}

// New builds a Maintainer for g, computing the initial decomposition and
// k-order with the configured heuristic. g must not be mutated except
// through the Maintainer afterwards.
func New(g *graph.Undirected, opts Options) *Maintainer {
	m := &Maintainer{g: g, opts: opts, seedCtr: opts.Seed}
	dec := decomp.KOrder(g, opts.Heuristic, opts.Seed)
	m.init(dec.Core, dec.DegPlus, dec.MCD, dec.MaxCore, dec.Order)
	return m
}

// init builds the per-vertex records and the per-level order lists from a
// decomposed state and its global k-order. All levels share one arena sized
// for the full vertex set up front.
func (m *Maintainer) init(core, degPlus, mcd []int, maxCore int, ord []int) {
	m.vs = make([]vstate, len(core))
	for v := range m.vs {
		m.vs[v] = vstate{core: int32(core[v]), degPlus: int32(degPlus[v]), mcd: int32(mcd[v])}
	}
	m.arena = order.NewArena()
	m.arena.Reserve(len(ord))
	m.levels = make([]order.List, maxCore+1)
	for k := range m.levels {
		m.levels[k] = m.newList()
	}
	for _, v := range ord {
		m.levels[m.vs[v].core].PushBack(v)
	}
}

func (m *Maintainer) newList() order.List {
	m.seedCtr++
	if m.tagged() {
		return order.NewTagListWith(m.arena, (*recordTags)(m))
	}
	return order.NewListOn(m.arena, m.opts.OrderKind, m.seedCtr*0x9e3779b97f4a7c15+1)
}

// recordTags is the TagStore of the Maintainer's tag lists: each tag lives
// in its vertex's record. It indexes m.vs on every call, because vs grows
// by append and a captured slice would go stale.
type recordTags Maintainer

func (r *recordTags) Tag(v int) uint64         { return r.vs[v].tag }
func (r *recordTags) SetTag(v int, tag uint64) { r.vs[v].tag = tag }

// tagged reports whether the levels are tag lists, whose order the records'
// tags carry.
func (m *Maintainer) tagged() bool { return m.opts.OrderKind == order.KindTagList }

// less reports whether w precedes z in the level list L that holds both;
// sw and sz are their records. A tag list's order is its tags'; a treap
// is asked.
func (m *Maintainer) less(L order.List, w int, sw *vstate, z int, sz *vstate) bool {
	if m.tagged() {
		return sw.tag < sz.tag
	}
	return L.Less(w, z)
}

// key returns a position-monotone key of v in its level list L, for the
// jump heap: the tag of a tag list, the rank in a treap.
func (m *Maintainer) key(L order.List, v int) uint64 {
	if m.tagged() {
		return m.vs[v].tag
	}
	return L.Key(v)
}

// Graph returns the underlying graph (read-only for callers).
func (m *Maintainer) Graph() *graph.Undirected { return m.g }

// Core returns the current core number of v (0 for unknown vertices).
func (m *Maintainer) Core(v int) int {
	if v < 0 || v >= len(m.vs) {
		return 0
	}
	return int(m.vs[v].core)
}

// Cores returns a copy of all current core numbers.
func (m *Maintainer) Cores() []int {
	out := make([]int, len(m.vs))
	for v := range m.vs {
		out[v] = int(m.vs[v].core)
	}
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
	for v := range m.vs {
		if int(m.vs[v].core) >= k {
			out = append(out, v)
		}
	}
	return out
}

// Order returns the maintained k-order as a vertex sequence (O_0 O_1 ...).
func (m *Maintainer) Order() []int {
	out := make([]int, 0, len(m.vs))
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
	for len(m.vs) <= v {
		w := len(m.vs)
		m.vs = append(m.vs, vstate{})
		m.ensureLevel(0)
		m.levels[0].PushBack(w)
	}
}

func (m *Maintainer) ensureLevel(k int) {
	for len(m.levels) <= k {
		m.levels = append(m.levels, m.newList())
	}
}

// before reports whether u precedes v in the maintained global k-order.
func (m *Maintainer) before(u, v int) bool {
	su, sv := &m.vs[u], &m.vs[v]
	if su.core != sv.core {
		return su.core < sv.core
	}
	return m.less(m.levels[su.core], u, su, v, sv)
}

// CheckInvariants validates the complete maintained state against
// recomputation: core numbers, level membership, the k-order property
// (Lemma 5.1), deg+ consistency with the order, and mcd. Intended for
// tests; cost is O((m+n) log n).
func (m *Maintainer) CheckInvariants() error {
	n := m.g.NumVertices()
	if len(m.vs) != n {
		return fmt.Errorf("korder: state has %d vertices, graph %d", len(m.vs), n)
	}
	core := m.Cores()
	if err := decomp.Validate(m.g, core); err != nil {
		return err
	}
	// Level membership, and for tag lists the tags the scans compare:
	// strictly increasing along every level, front to back.
	seen := make([]bool, n)
	for k, l := range m.levels {
		prev := -1
		for v, ok := l.Front(); ok; v, ok = l.Next(v) {
			if seen[v] {
				return fmt.Errorf("korder: vertex %d appears in multiple levels", v)
			}
			seen[v] = true
			if core[v] != k {
				return fmt.Errorf("korder: vertex %d in O_%d but core %d", v, k, core[v])
			}
			if m.tagged() && prev >= 0 && m.vs[v].tag <= m.vs[prev].tag {
				return fmt.Errorf("korder: tag of %d (%d) not above tag of %d (%d) in O_%d",
					v, m.vs[v].tag, prev, m.vs[prev].tag, k)
			}
			prev = v
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
		if dp != int(m.vs[v].degPlus) {
			return fmt.Errorf("korder: deg+(%d) = %d, order implies %d", v, m.vs[v].degPlus, dp)
		}
		if dp > core[v] {
			return fmt.Errorf("korder: deg+(%d) = %d exceeds core %d (Lemma 5.1 violated)",
				v, dp, core[v])
		}
	}
	// mcd consistency.
	wantMCD := decomp.ComputeMCD(m.g, core)
	for v := 0; v < n; v++ {
		if int(m.vs[v].mcd) != wantMCD[v] {
			return fmt.Errorf("korder: mcd(%d) = %d, want %d", v, m.vs[v].mcd, wantMCD[v])
		}
	}
	return nil
}
