package order

import "fmt"

// Arena is the shared node store backing the order lists: every node field
// lives in a growable column indexed by an int32 handle, and a vertex's
// handle is its id + 1, so finding a vertex's node is one index, with no
// slot table and no free list. Compared with the previous pointer-per-node
// layout (one heap object per element found through a map), an arena keeps
// the hot maintenance loops allocation-free in steady state and walks
// contiguous memory.
//
// Memory is O(max vertex id), not O(live elements): the columns grow to
// cover the largest id ever inserted and never shrink. Ids must therefore
// be dense, as the korder Maintainer's and the graph's are (0..n-1).
//
// Handle 0 is a reserved null sentinel: child/parent links of 0 mean
// "none", owner 0 means "absent", and size[0] = 0 makes subtree-size
// arithmetic branch-free.
//
// One arena may back any number of lists (the korder Maintainer backs every
// per-level O_k list with a single arena), under one restriction: lists
// sharing an arena must hold pairwise disjoint vertex sets. That is exactly
// the level-partition invariant of core maintenance, and it is what makes
// level migration cheap — when a vertex moves from O_k to O_{k+1}, the
// insert reuses the node the Remove just gave up, because the node is the
// vertex's own.
//
// An Arena and the lists attached to it are not safe for concurrent use.
type Arena struct {
	// Per-node columns, indexed by handle. kv, next and prev are used by
	// every list kind; left/right/par/size only by treaps (the sentinel
	// keeps them consistent for mixed-kind arenas).
	kv    []keyOwner // order key paired with the owning list
	next  []int32    // linked-list forward link (0 = none)
	prev  []int32    // linked-list backward link (0 = none)
	left  []int32    // treap left child (0 = none)
	right []int32    // treap right child (0 = none)
	par   []int32    // treap parent (0 = root)
	size  []int32    // treap subtree size; size[0] = 0 anchors the sentinel

	live  int   // nodes currently held by some list
	lists int32 // ids handed out to attached lists (ids start at 1)
}

// keyOwner pairs a node's key with its owner in one 16-byte cell, so an
// ownership-checked key read touches one cache line. A TagList whose tags
// live in another store (NewTagListWith) leaves the key zero.
type keyOwner struct {
	key   uint64 // treap heap priority / order tag of an arena-tagged TagList
	owner int32  // id of the list holding the node; 0 = absent
}

// NewArena returns an empty arena holding only the null sentinel.
func NewArena() *Arena {
	a := &Arena{}
	a.grow(1) // handle 0: the sentinel
	return a
}

// Reserve pre-sizes the arena for vertex ids 0..n-1, so a bulk load
// performs no growth reallocations.
func (a *Arena) Reserve(n int) { a.grow(n + 1) }

// Len reports the number of live nodes across all lists on the arena.
func (a *Arena) Len() int { return a.live }

// register attaches a new list and returns its owner id.
func (a *Arena) register() int32 {
	a.lists++
	return a.lists
}

// grow extends every column to at least n zeroed nodes.
func (a *Arena) grow(n int) {
	k := n - len(a.kv)
	if k <= 0 {
		return
	}
	a.kv = append(a.kv, make([]keyOwner, k)...)
	a.next = append(a.next, make([]int32, k)...)
	a.prev = append(a.prev, make([]int32, k)...)
	a.left = append(a.left, make([]int32, k)...)
	a.right = append(a.right, make([]int32, k)...)
	a.par = append(a.par, make([]int32, k)...)
	a.size = append(a.size, make([]int32, k)...)
}

// alloc claims vertex v's node on behalf of list id and returns its handle.
// impl names the list kind for the panic message. Panics if v is negative
// or already present in any list sharing the arena (lists on one arena hold
// disjoint vertex sets).
func (a *Arena) alloc(id int32, v int, key uint64, impl string) int32 {
	if v < 0 {
		panic(fmt.Sprintf("order: negative vertex %d", v))
	}
	a.grow(v + 2)
	h := int32(v + 1)
	if o := a.kv[h].owner; o != 0 {
		if o == id {
			panic(fmt.Sprintf("order: vertex %d already in %s", v, impl))
		}
		panic(fmt.Sprintf("order: vertex %d already held by another list on this arena", v))
	}
	a.next[h], a.prev[h] = 0, 0
	a.left[h], a.right[h], a.par[h] = 0, 0, 0
	a.size[h] = 1
	a.kv[h] = keyOwner{key: key, owner: id}
	a.live++
	return h
}

// release marks node h absent from every list.
func (a *Arena) release(h int32) {
	a.kv[h].owner = 0
	a.live--
}

// vertex returns the vertex id whose node is h.
func vertex(h int32) int { return int(h) - 1 }

// handle resolves vertex v to its node handle in list id, or 0 when v is
// absent from that list (including when it lives in a sibling list).
func (a *Arena) handle(id int32, v int) int32 {
	if uint(v) >= uint(len(a.kv)-1) {
		return 0
	}
	h := int32(v + 1)
	if a.kv[h].owner != id {
		return 0
	}
	return h
}

// mustHandle is handle with the original panic-on-misuse contract.
func (a *Arena) mustHandle(id int32, v int, op, impl string) int32 {
	h := a.handle(id, v)
	if h == 0 {
		panic(fmt.Sprintf("order: %s: %d not in %s", op, v, impl))
	}
	return h
}
