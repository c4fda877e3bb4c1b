package kcore

import "slices"

// Epoch-published read state: instead of guarding queries with the engine's
// RWMutex, the writer publishes an immutable snapshot of everything the read
// APIs answer from — core numbers, graph counts, degeneracy, sequence number,
// execution counters — after every mutation, with a single atomic pointer
// swap. Readers load the current epoch and answer with zero locking, so
// queries and SSE fan-out never contend with Apply at all.
//
// Publication must not make the write path O(n) per update, so an epoch is
// a two-level structure: a shared immutable base array of core numbers plus
// a small sorted patch of overrides. A batch that changes few cores
// publishes a new epoch that aliases the previous base and carries the
// changes (and any new vertices) in the patch; once the patch would exceed
// maxEpochPatch entries the writer folds everything into a fresh base.
// Point reads pay one bounded binary search over the patch; the writer pays
// O(changes) per publish and one O(n) copy per ~maxEpochPatch accumulated
// changes — amortized O(1) per single-edge update.
//
// Safety argument (see also PARALLEL.md):
//
//   - The writer fully constructs an epoch — base, patch, and scalars —
//     before the atomic Store. The Store is a release operation and every
//     reader's Load is an acquire, so a reader that observes the pointer
//     observes every field behind it (Go memory model: the atomic store
//     orders all writes that happened before it ahead of any read that
//     follows the corresponding load).
//   - An epoch is never mutated after publication: bases are shared across
//     epochs but only ever read, and each publish builds a fresh patch
//     slice. Readers therefore cannot observe torn or shifting state, and
//     a View (which wraps one epoch) stays valid indefinitely.
//   - All publications happen while holding the engine write lock, so the
//     stores are totally ordered and, between Restores, epoch sequence
//     numbers are monotonic: a reader that loads seq S and loads again
//     later sees seq' >= S. Restore may install an older state, whose
//     epoch carries a lower seq.

// maxEpochPatch bounds the patch: one more accumulated change folds the
// epoch into a fresh base. The bound trades the writer's fold frequency
// against the readers' binary-search depth (6 levels at 64).
const maxEpochPatch = 64

// corePatch is one patch entry: vertex v has core number c, overriding the
// base array.
type corePatch struct{ v, c int32 }

// epoch is the immutable read-state snapshot. Core numbers are stored as
// int32 — a core number is bounded by the maximum degree, and the graph
// package already stores vertex ids as int32 — halving the copy cost of a
// fold.
type epoch struct {
	cores    []int32     // base core numbers; shared across epochs, never written
	patch    []corePatch // sorted by v; overrides cores, covers vertices beyond it
	vertices int         // authoritative vertex count (>= len(cores))
	edges    int
	maxCore  int
	seq      uint64
	exec     ExecStats
}

// core answers a point lookup (0 for unknown vertices).
func (ep *epoch) core(v int) int {
	if v < 0 || v >= ep.vertices {
		return 0
	}
	if lo, hi := 0, len(ep.patch); hi > 0 {
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if int(ep.patch[mid].v) < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(ep.patch) && int(ep.patch[lo].v) == v {
			return int(ep.patch[lo].c)
		}
	}
	if v < len(ep.cores) {
		return int(ep.cores[v])
	}
	return 0
}

// forEach visits every vertex with its effective core number, merging the
// base and the patch in one O(vertices + patch) pass.
func (ep *epoch) forEach(fn func(v, c int)) {
	pi := 0
	for v := 0; v < ep.vertices; v++ {
		c := 0
		if v < len(ep.cores) {
			c = int(ep.cores[v])
		}
		for pi < len(ep.patch) && int(ep.patch[pi].v) < v {
			pi++
		}
		if pi < len(ep.patch) && int(ep.patch[pi].v) == v {
			c = int(ep.patch[pi].c)
		}
		fn(v, c)
	}
}

// coresCopy converts the epoch's effective core numbers to a fresh []int.
func (ep *epoch) coresCopy() []int {
	out := make([]int, ep.vertices)
	ep.forEach(func(v, c int) { out[v] = c })
	return out
}

// publishEpoch derives the next epoch from the previous one and installs
// it. changed lists every pre-existing vertex whose core number changed
// since the last publication (BatchInfo.Total.CoreChanged is exactly that
// list, duplicate-free, on both execution strategies); vertices
// created since the last epoch are always re-read from the maintainer, so
// they need not appear in changed. The caller holds the write lock.
func (e *Engine) publishEpoch(changed []int) {
	old := e.ep.Load()
	if old == nil {
		e.publishEpochFull()
		return
	}
	n := e.g.NumVertices()
	grown := n - old.vertices
	if len(changed) == 0 && grown == 0 {
		// Counts, seq and exec may still have moved (e.g. an edge flip
		// that changed no cores): alias both levels, O(1).
		e.installEpoch(old.cores, old.patch)
		return
	}
	if len(old.patch)+len(changed)+grown > maxEpochPatch ||
		4*(len(old.patch)+len(changed)+grown) > n {
		// Fold: the old epoch already equals the pre-change state (the
		// seq invariant), so the new base is old base + old patch + this
		// publication's updates — one memcpy plus O(updates) maintainer
		// reads, never an O(n) re-read of the maintainer.
		cores := make([]int32, n)
		copy(cores, old.cores)
		for _, p := range old.patch {
			cores[p.v] = p.c
		}
		for _, v := range changed {
			if v >= 0 && v < n {
				cores[v] = int32(e.m.Core(v))
			}
		}
		for v := old.vertices; v < n; v++ {
			cores[v] = int32(e.m.Core(v))
		}
		e.installEpoch(cores, nil)
		return
	}
	// Collect this publication's overrides (changed may already include
	// fresh vertices; the sort-then-merge below deduplicates). epUpd is
	// writer-owned scratch: values are copied into the fresh patch, the
	// slice itself is never published.
	upd := e.epUpd[:0]
	for _, v := range changed {
		if v >= 0 && v < n {
			upd = append(upd, corePatch{int32(v), int32(e.m.Core(v))})
		}
	}
	for v := old.vertices; v < n; v++ {
		upd = append(upd, corePatch{int32(v), int32(e.m.Core(v))})
	}
	slices.SortFunc(upd, func(a, b corePatch) int { return int(a.v) - int(b.v) })
	e.epUpd = upd
	// Merge the old patch with the new overrides (new wins on ties) into a
	// fresh sorted patch; the base is shared untouched.
	patch := make([]corePatch, 0, len(old.patch)+len(upd))
	i, j := 0, 0
	for i < len(old.patch) || j < len(upd) {
		switch {
		case j >= len(upd):
			patch = append(patch, old.patch[i])
			i++
		case i >= len(old.patch):
			patch = appendPatch(patch, upd[j])
			j++
		case old.patch[i].v < upd[j].v:
			patch = append(patch, old.patch[i])
			i++
		case old.patch[i].v > upd[j].v:
			patch = appendPatch(patch, upd[j])
			j++
		default:
			patch = appendPatch(patch, upd[j])
			i++
			j++
		}
	}
	e.installEpoch(old.cores, patch)
}

// appendPatch appends p, replacing a duplicate vertex at the tail (changed
// and the fresh-vertex range may overlap; both read the same current core,
// so last-write-wins is exact).
func appendPatch(patch []corePatch, p corePatch) []corePatch {
	if k := len(patch) - 1; k >= 0 && patch[k].v == p.v {
		patch[k] = p
		return patch
	}
	return append(patch, p)
}

// publishEpochFull rebuilds the read state from the maintainer into a
// fresh base with an empty patch, trusting no previous epoch.
// Construction, Restore and panic repair (after a wholesale reseed there
// is no reliable changed list relative to the last published state) land
// here;
// ordinary patch overflow folds from the previous epoch inside
// publishEpoch instead. The caller holds the write lock.
func (e *Engine) publishEpochFull() {
	n := e.g.NumVertices()
	cores := make([]int32, n)
	for v := range cores {
		cores[v] = int32(e.m.Core(v))
	}
	e.installEpoch(cores, nil)
}

// installEpoch stamps the remaining read-state fields and swaps the epoch
// in. The maintained level lists answer the degeneracy in O(degeneracy)
// without touching the core numbers. The caller holds the write lock.
func (e *Engine) installEpoch(cores []int32, patch []corePatch) {
	e.ep.Store(&epoch{
		cores:    cores,
		patch:    patch,
		vertices: e.g.NumVertices(),
		edges:    e.g.NumEdges(),
		maxCore:  e.m.MaxCore(),
		seq:      e.seq,
		exec:     e.exec,
	})
}

// loadEpoch returns the current epoch for a lock-free read.
func (e *Engine) loadEpoch() *epoch { return e.ep.Load() }
