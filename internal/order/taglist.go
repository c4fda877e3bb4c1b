package order

import "math"

// TagList is a labeled order-maintenance list in the style of Dietz and
// Sleator: every element carries a 64-bit tag, order comparison is a tag
// comparison (O(1)), and insertion places the new tag at the midpoint of
// its neighbors' tags (a new head or tail at most endGap past the old one).
// When that gap is exhausted, the list relabels locally (Bender, Cole,
// Demaine, Farach-Colton and Zito, "Two Simplified Algorithms for
// Maintaining Order in a List", ESA 2002): it grows an aligned tag range
// around the insertion point, one bit at a time, until the range holds few
// enough elements for its size, and spreads only that range's elements
// evenly across it. Each relabel pass therefore touches a neighborhood of
// the insertion point, not the whole list, and the amortized number of
// elements relabeled per insertion is O(log n).
//
// TagList is the engine's default order structure. Less costs O(1) instead
// of the treap's O(log n), at the price of O(n) Rank (used only in
// tests/diagnostics).
//
// The links live in an Arena; steady-state updates allocate nothing, and
// several lists may share one arena (see Arena). The tags live in a
// TagStore that the list's creator supplies (NewTagListWith): by default
// the arena's key column, or a field of the caller's own per-vertex record,
// so that a caller scanning those records compares two tags without a call
// into the list. Either way each tag is stored once.
type TagList struct {
	a          *Arena
	tags       TagStore
	id         int32
	head, tail int32
	n          int
	renumbers  int // diagnostic: how many relabel passes happened
	relabeled  int // diagnostic: elements written by those passes
}

var _ List = (*TagList)(nil)

// TagStore holds a TagList's order tags, one per vertex id. The list writes
// a vertex's tag when it inserts or relabels the vertex, and reads it only
// while the vertex is in the list, so a store needs no presence bit and may
// hold stale tags for absent vertices.
type TagStore interface {
	Tag(v int) uint64
	SetTag(v int, tag uint64)
}

// arenaTags is the arena's key column as a TagStore, the tag home of a list
// built by NewTagList or NewTagListOn.
type arenaTags Arena

func (a *arenaTags) Tag(v int) uint64         { return a.kv[v+1].key }
func (a *arenaTags) SetTag(v int, tag uint64) { a.kv[v+1].key = tag }

// NewTagList returns an empty TagList on its own private arena.
func NewTagList() *TagList { return NewTagListOn(NewArena()) }

// NewTagListOn returns an empty TagList whose nodes and tags live on the
// shared arena a. Lists sharing an arena must hold disjoint vertex sets.
func NewTagListOn(a *Arena) *TagList { return NewTagListWith(a, (*arenaTags)(a)) }

// NewTagListWith returns an empty TagList whose links live on the shared
// arena a and whose tags live in tags. Lists sharing an arena must hold
// disjoint vertex sets; lists sharing a store must too.
func NewTagListWith(a *Arena, tags TagStore) *TagList {
	return &TagList{a: a, tags: tags, id: a.register()}
}

// tag and setTag access the tag of node n in the list's store.
func (t *TagList) tag(n int32) uint64         { return t.tags.Tag(vertex(n)) }
func (t *TagList) setTag(n int32, tag uint64) { t.tags.SetTag(vertex(n), tag) }

// Len reports the number of elements.
func (t *TagList) Len() int { return t.n }

// Contains reports whether v is present.
func (t *TagList) Contains(v int) bool { return t.a.handle(t.id, v) != 0 }

// Renumbers reports how many relabel passes occurred (diagnostics).
func (t *TagList) Renumbers() int { return t.renumbers }

func (t *TagList) newNode(v int) int32 {
	h := t.a.alloc(t.id, v, 0, "taglist")
	t.n++
	return h
}

// lowerTag returns the tag bound below n (exclusive); 0 when n is the head.
func (t *TagList) lowerTag(n int32) uint64 {
	if t.a.prev[n] == 0 {
		return 0
	}
	return t.tag(t.a.prev[n])
}

// upperTag returns the tag bound above n (exclusive); MaxUint64 when n is
// the tail.
func (t *TagList) upperTag(n int32) uint64 {
	if t.a.next[n] == 0 {
		return math.MaxUint64
	}
	return t.tag(t.a.next[n])
}

// tagDensity is the growth factor T of the relabel thresholds: an aligned
// tag range of 2^i labels may hold at most (2/T)^i elements before a relabel
// must widen past it. 1 < T < 2; a smaller T packs ranges more densely and
// relabels more often, a larger T spreads them wider. At T = 1.5 the
// whole 64-bit space admits (4/3)^64 ≈ 10^8 elements per list before the
// top range itself is over threshold, when it is relabeled regardless.
const tagDensity = 1.5

// endGap bounds how far from its neighbor a new head or tail is placed.
// Between two elements the midpoint of the gap is taken, but an end's gap
// reaches to the edge of the tag space, and halving it on every PushBack
// would exhaust it after 64 appends; stepping by at most endGap instead
// leaves room for 2^31 appends at either end of a list begun mid-space
// (a bulk load by PushBack relabels nothing).
const endGap = 1 << 32

// assignTag picks a tag strictly between the neighbors of n, relabeling a
// range around n first when the gap is exhausted. n must already be linked
// into the DLL.
func (t *TagList) assignTag(n int32) {
	lo, hi := t.lowerTag(n), t.upperTag(n)
	if hi-lo < 2 {
		t.relabel(n)
		return
	}
	a, half := t.a, (hi-lo)/2
	switch {
	case a.next[n] == 0 && a.prev[n] != 0: // new tail
		t.setTag(n, lo+min(half, endGap))
	case a.prev[n] == 0 && a.next[n] != 0: // new head
		t.setTag(n, hi-min(half, endGap))
	default:
		t.setTag(n, lo+half)
	}
}

// relabel gives n a tag by spreading the smallest sufficiently sparse
// aligned tag range around it. The range at level i is the 2^i labels
// sharing the anchor's (a labeled neighbor of n) high 64-i bits; its
// elements form one contiguous run of the list, so growing the level only
// extends the run at both ends. The first level whose run, n included,
// fits under (2/T)^i elements is relabeled with its elements evenly spaced,
// which leaves gaps on both sides of every element, n among them.
func (t *TagList) relabel(n int32) {
	a := t.a
	anchor := t.tag(a.next[n])
	if p := a.prev[n]; p != 0 {
		anchor = t.tag(p)
	}
	first, last, count := n, n, 1
	limit := 1.0
	for i := 1; ; i++ {
		limit *= 2 / tagDensity
		mask := ^uint64(0) >> (64 - i) // the range is [base, base+mask]
		base := anchor &^ mask
		for p := a.prev[first]; p != 0 && t.tag(p) >= base; p = a.prev[p] {
			first = p
			count++
		}
		for q := a.next[last]; q != 0 && t.tag(q)-base <= mask; q = a.next[q] {
			last = q
			count++
		}
		if float64(count) <= limit || i == 64 {
			step := mask / uint64(count+1)
			tag := base
			for e := first; ; e = a.next[e] {
				tag += step
				t.setTag(e, tag)
				if e == last {
					break
				}
			}
			t.renumbers++
			t.relabeled += count
			return
		}
	}
}

// PushFront inserts v at the beginning.
func (t *TagList) PushFront(v int) {
	a := t.a
	n := t.newNode(v)
	a.next[n] = t.head
	if t.head != 0 {
		a.prev[t.head] = n
	}
	t.head = n
	if t.tail == 0 {
		t.tail = n
	}
	t.assignTag(n)
}

// PushBack inserts v at the end.
func (t *TagList) PushBack(v int) {
	a := t.a
	n := t.newNode(v)
	a.prev[n] = t.tail
	if t.tail != 0 {
		a.next[t.tail] = n
	}
	t.tail = n
	if t.head == 0 {
		t.head = n
	}
	t.assignTag(n)
}

// InsertAfter inserts v immediately after after.
func (t *TagList) InsertAfter(after, v int) {
	a := t.a
	x := a.mustHandle(t.id, after, "InsertAfter", "taglist")
	n := t.newNode(v)
	a.prev[n] = x
	a.next[n] = a.next[x]
	if a.next[x] != 0 {
		a.prev[a.next[x]] = n
	} else {
		t.tail = n
	}
	a.next[x] = n
	t.assignTag(n)
}

// InsertBefore inserts v immediately before before.
func (t *TagList) InsertBefore(before, v int) {
	a := t.a
	x := a.mustHandle(t.id, before, "InsertBefore", "taglist")
	n := t.newNode(v)
	a.next[n] = x
	a.prev[n] = a.prev[x]
	if a.prev[x] != 0 {
		a.next[a.prev[x]] = n
	} else {
		t.head = n
	}
	a.prev[x] = n
	t.assignTag(n)
}

// Remove deletes v, marking its node absent on the arena.
func (t *TagList) Remove(v int) {
	a := t.a
	n := a.mustHandle(t.id, v, "Remove", "taglist")
	if a.prev[n] != 0 {
		a.next[a.prev[n]] = a.next[n]
	} else {
		t.head = a.next[n]
	}
	if a.next[n] != 0 {
		a.prev[a.next[n]] = a.prev[n]
	} else {
		t.tail = a.prev[n]
	}
	t.n--
	a.release(n)
}

// Rank returns the 1-based position of v. O(n): TagList trades rank queries
// for O(1) comparisons; use Treap when ranks are needed.
func (t *TagList) Rank(v int) int {
	n := t.a.mustHandle(t.id, v, "Rank", "taglist")
	r := 1
	for e := t.head; e != n; e = t.a.next[e] {
		r++
	}
	return r
}

// Key returns the tag as a position-monotone key in O(1).
func (t *TagList) Key(v int) uint64 {
	return t.tag(t.a.mustHandle(t.id, v, "Key", "taglist"))
}

// Less reports whether a precedes b in O(1).
func (t *TagList) Less(a, b int) bool {
	if a == b {
		return false
	}
	na := t.a.mustHandle(t.id, a, "Less", "taglist")
	nb := t.a.mustHandle(t.id, b, "Less", "taglist")
	return t.tag(na) < t.tag(nb)
}

// Front returns the first element.
func (t *TagList) Front() (int, bool) {
	if t.head == 0 {
		return 0, false
	}
	return vertex(t.head), true
}

// Back returns the last element.
func (t *TagList) Back() (int, bool) {
	if t.tail == 0 {
		return 0, false
	}
	return vertex(t.tail), true
}

// Next returns the element after v.
func (t *TagList) Next(v int) (int, bool) {
	n := t.a.mustHandle(t.id, v, "Next", "taglist")
	if t.a.next[n] == 0 {
		return 0, false
	}
	return vertex(t.a.next[n]), true
}

// Prev returns the element before v.
func (t *TagList) Prev(v int) (int, bool) {
	n := t.a.mustHandle(t.id, v, "Prev", "taglist")
	if t.a.prev[n] == 0 {
		return 0, false
	}
	return vertex(t.a.prev[n]), true
}
