package order

import "fmt"

// Treap is an order-statistics tree keyed by position (not by value): every
// node holds one vertex, subtree sizes give 1-based ranks in O(log n), and
// parent pointers let Rank start from the vertex's node directly — this is
// the one-to-one vertex→node mapping the paper introduces to make rank
// queries possible without knowing the rank in advance (Section VI(A)).
//
// Nodes live in an Arena: tree and list links are int32 handles into the
// arena's columns, and a vertex's node is found by its id (handle = id + 1).
// Steady-state updates allocate nothing. Several treaps may share one arena
// (see Arena).
type Treap struct {
	a    *Arena
	id   int32
	root int32
	head int32
	tail int32
	n    int
	rng  uint64 // splitmix64 state for priorities
}

var _ List = (*Treap)(nil)

// NewTreap returns an empty treap on its own private arena, with priorities
// drawn deterministically from seed.
func NewTreap(seed uint64) *Treap { return NewTreapOn(NewArena(), seed) }

// NewTreapOn returns an empty treap whose nodes live on the shared arena a.
// Lists sharing an arena must hold disjoint vertex sets.
func NewTreapOn(a *Arena, seed uint64) *Treap {
	return &Treap{a: a, id: a.register(), rng: seed ^ 0x9e3779b97f4a7c15}
}

// prio draws the next node priority (splitmix64: allocation-free and
// deterministic for a given seed).
func (t *Treap) prio() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Len reports the number of elements.
func (t *Treap) Len() int { return t.n }

// Contains reports whether v is present.
func (t *Treap) Contains(v int) bool { return t.a.handle(t.id, v) != 0 }

func (t *Treap) newNode(v int) int32 {
	h := t.a.alloc(t.id, v, t.prio(), "treap")
	t.n++
	return h
}

// PushFront inserts v at the beginning of the order.
func (t *Treap) PushFront(v int) {
	a := t.a
	n := t.newNode(v)
	// DLL.
	a.next[n] = t.head
	if t.head != 0 {
		a.prev[t.head] = n
	}
	t.head = n
	if t.tail == 0 {
		t.tail = n
	}
	// Tree: attach at leftmost position.
	if t.root == 0 {
		t.root = n
		return
	}
	x := t.root
	for a.left[x] != 0 {
		x = a.left[x]
	}
	a.left[x] = n
	a.par[n] = x
	t.fixupInsert(n)
}

// PushBack inserts v at the end of the order.
func (t *Treap) PushBack(v int) {
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
	if t.root == 0 {
		t.root = n
		return
	}
	x := t.root
	for a.right[x] != 0 {
		x = a.right[x]
	}
	a.right[x] = n
	a.par[n] = x
	t.fixupInsert(n)
}

// InsertAfter inserts v immediately after after.
func (t *Treap) InsertAfter(after, v int) {
	a := t.a
	x := a.mustHandle(t.id, after, "InsertAfter", "treap")
	n := t.newNode(v)
	// DLL.
	a.prev[n] = x
	a.next[n] = a.next[x]
	if a.next[x] != 0 {
		a.prev[a.next[x]] = n
	} else {
		t.tail = n
	}
	a.next[x] = n
	// Tree: successor position of x.
	if a.right[x] == 0 {
		a.right[x] = n
		a.par[n] = x
	} else {
		y := a.right[x]
		for a.left[y] != 0 {
			y = a.left[y]
		}
		a.left[y] = n
		a.par[n] = y
	}
	t.fixupInsert(n)
}

// InsertBefore inserts v immediately before before.
func (t *Treap) InsertBefore(before, v int) {
	a := t.a
	x := a.mustHandle(t.id, before, "InsertBefore", "treap")
	n := t.newNode(v)
	a.next[n] = x
	a.prev[n] = a.prev[x]
	if a.prev[x] != 0 {
		a.next[a.prev[x]] = n
	} else {
		t.head = n
	}
	a.prev[x] = n
	if a.left[x] == 0 {
		a.left[x] = n
		a.par[n] = x
	} else {
		y := a.left[x]
		for a.right[y] != 0 {
			y = a.right[y]
		}
		a.right[y] = n
		a.par[n] = y
	}
	t.fixupInsert(n)
}

// fixupInsert walks size increments up from the freshly attached leaf n and
// then restores the min-heap priority invariant by rotations.
func (t *Treap) fixupInsert(n int32) {
	a := t.a
	for x := a.par[n]; x != 0; x = a.par[x] {
		a.size[x]++
	}
	for a.par[n] != 0 && a.kv[n].key < a.kv[a.par[n]].key {
		t.rotateUp(n)
	}
}

// rotateUp rotates n above its parent, preserving in-order sequence,
// sizes, and parent links.
func (t *Treap) rotateUp(n int32) {
	a := t.a
	p := a.par[n]
	g := a.par[p]
	if n == a.left[p] {
		a.left[p] = a.right[n]
		if a.right[n] != 0 {
			a.par[a.right[n]] = p
		}
		a.right[n] = p
	} else {
		a.right[p] = a.left[n]
		if a.left[n] != 0 {
			a.par[a.left[n]] = p
		}
		a.left[n] = p
	}
	a.par[p] = n
	a.par[n] = g
	if g == 0 {
		t.root = n
	} else if a.left[g] == p {
		a.left[g] = n
	} else {
		a.right[g] = n
	}
	a.size[p] = a.size[a.left[p]] + a.size[a.right[p]] + 1
	a.size[n] = a.size[a.left[n]] + a.size[a.right[n]] + 1
}

// Remove deletes v. Its node stays v's own, so a following insertion of v
// (into this list or a sibling on the same arena) reuses it.
func (t *Treap) Remove(v int) {
	a := t.a
	n := a.mustHandle(t.id, v, "Remove", "treap")
	// DLL unlink.
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
	// Rotate n down to a leaf.
	for a.left[n] != 0 || a.right[n] != 0 {
		var c int32
		switch {
		case a.left[n] == 0:
			c = a.right[n]
		case a.right[n] == 0:
			c = a.left[n]
		case a.kv[a.left[n]].key < a.kv[a.right[n]].key:
			c = a.left[n]
		default:
			c = a.right[n]
		}
		t.rotateUp(c)
	}
	// Detach leaf and decrement sizes on the path to the root.
	p := a.par[n]
	if p == 0 {
		t.root = 0
	} else {
		if a.left[p] == n {
			a.left[p] = 0
		} else {
			a.right[p] = 0
		}
		for x := p; x != 0; x = a.par[x] {
			a.size[x]--
		}
	}
	t.n--
	a.release(n)
}

// Rank returns the 1-based position of v in O(log n) expected time.
func (t *Treap) Rank(v int) int {
	a := t.a
	n := a.mustHandle(t.id, v, "Rank", "treap")
	r := int(a.size[a.left[n]]) + 1
	for x := n; a.par[x] != 0; x = a.par[x] {
		if x == a.right[a.par[x]] {
			r += int(a.size[a.left[a.par[x]]]) + 1
		}
	}
	return r
}

// Key returns the rank as a position-monotone key.
func (t *Treap) Key(v int) uint64 { return uint64(t.Rank(v)) }

// Less reports whether a precedes b.
func (t *Treap) Less(a, b int) bool {
	if a == b {
		return false
	}
	return t.Rank(a) < t.Rank(b)
}

// Front returns the first element.
func (t *Treap) Front() (int, bool) {
	if t.head == 0 {
		return 0, false
	}
	return vertex(t.head), true
}

// Back returns the last element.
func (t *Treap) Back() (int, bool) {
	if t.tail == 0 {
		return 0, false
	}
	return vertex(t.tail), true
}

// Next returns the element after v in O(1).
func (t *Treap) Next(v int) (int, bool) {
	n := t.a.mustHandle(t.id, v, "Next", "treap")
	if t.a.next[n] == 0 {
		return 0, false
	}
	return vertex(t.a.next[n]), true
}

// Prev returns the element before v in O(1).
func (t *Treap) Prev(v int) (int, bool) {
	n := t.a.mustHandle(t.id, v, "Prev", "treap")
	if t.a.prev[n] == 0 {
		return 0, false
	}
	return vertex(t.a.prev[n]), true
}

// checkInvariants validates heap order, subtree sizes, parent links, DLL
// and tree order agreement, and node ownership. Test helper.
func (t *Treap) checkInvariants() error {
	a := t.a
	var inorder []int32
	var walk func(n int32) (int, error)
	walk = func(n int32) (int, error) {
		if n == 0 {
			return 0, nil
		}
		if l := a.left[n]; l != 0 {
			if a.par[l] != n {
				return 0, fmt.Errorf("parent link broken at %d.left", vertex(n))
			}
			if a.kv[l].key < a.kv[n].key {
				return 0, fmt.Errorf("heap violated at %d", vertex(n))
			}
		}
		if r := a.right[n]; r != 0 {
			if a.par[r] != n {
				return 0, fmt.Errorf("parent link broken at %d.right", vertex(n))
			}
			if a.kv[r].key < a.kv[n].key {
				return 0, fmt.Errorf("heap violated at %d", vertex(n))
			}
		}
		if a.kv[n].owner != t.id {
			return 0, fmt.Errorf("node of %d owned by list %d, not %d", vertex(n), a.kv[n].owner, t.id)
		}
		ls, err := walk(a.left[n])
		if err != nil {
			return 0, err
		}
		inorder = append(inorder, n)
		rs, err := walk(a.right[n])
		if err != nil {
			return 0, err
		}
		if int(a.size[n]) != ls+rs+1 {
			return 0, fmt.Errorf("size broken at %d: %d != %d", vertex(n), a.size[n], ls+rs+1)
		}
		return ls + rs + 1, nil
	}
	total, err := walk(t.root)
	if err != nil {
		return err
	}
	if total != t.n {
		return fmt.Errorf("tree has %d nodes, list claims %d", total, t.n)
	}
	i := 0
	for n := t.head; n != 0; n = a.next[n] {
		if i >= len(inorder) || inorder[i] != n {
			return fmt.Errorf("DLL and tree inorder diverge at index %d", i)
		}
		i++
	}
	if i != total {
		return fmt.Errorf("DLL has %d nodes, tree has %d", i, total)
	}
	return nil
}
