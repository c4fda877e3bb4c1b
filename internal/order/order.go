// Package order provides the order-maintenance structures used to represent
// the paper's per-level sequences O_k.
//
// Two implementations of the List interface are provided:
//
//   - Treap: the paper's order-statistics tree (Section VI(A)), built on a
//     randomized treap with subtree sizes and parent pointers. Rank and
//     order comparison cost O(log n); every structural update costs
//     O(log n) expected.
//   - TagList: a Dietz–Sleator style labeled list with O(1) order
//     comparison. When an insertion finds no free tag between its
//     neighbors, it relabels only a small aligned tag range around the
//     insertion point (O(log n) elements amortized; see TagList). It is the
//     engine's default structure; the treap stays the maintainer's zero
//     value and the baseline of the data-structure ablation.
//
// Both embed a doubly linked list for O(1) Next/Prev traversal, mirroring
// the paper's implementation note that O_k is kept in a linked list with an
// auxiliary structure A_k for comparisons.
//
// Both implementations store their nodes in an Arena — growable columns
// whose handle for vertex v is v + 1 — instead of one heap object per
// element behind a map. There is no slot table and no free list: a vertex's
// node is found by its id, so arena memory is O(max vertex id) and ids must
// be dense, as the korder Maintainer's and the graph's are. Lists holding
// disjoint vertex sets can share one arena (NewListOn), which is how the
// korder Maintainer backs all per-level O_k lists with a single store; a
// level migration moves a vertex's own node from one list to the other.
// A TagList may keep its tags outside the arena, in a TagStore of its
// creator's (NewTagListWith): the korder Maintainer stores them in its
// per-vertex records, which its scans read anyway.
package order

// List is an ordered set of distinct non-negative vertex ids supporting
// order queries and positional insertion.
type List interface {
	// Len reports the number of elements.
	Len() int
	// Contains reports whether v is in the list.
	Contains(v int) bool
	// PushFront inserts v at the beginning. v must not be present.
	PushFront(v int)
	// PushBack inserts v at the end. v must not be present.
	PushBack(v int)
	// InsertAfter inserts v immediately after existing element after.
	InsertAfter(after, v int)
	// InsertBefore inserts v immediately before existing element before.
	InsertBefore(before, v int)
	// Remove deletes v from the list. v must be present.
	Remove(v int)
	// Rank returns the 1-based position of v.
	Rank(v int) int
	// Key returns a position-monotone key for v: for any u, w present,
	// Key(u) < Key(w) iff u precedes w. Keys are only comparable while the
	// list is unmodified (the treap returns the rank, the tag list its
	// label). Used as heap keys by the maintenance scan.
	Key(v int) uint64
	// Less reports whether a precedes b. Both must be present.
	Less(a, b int) bool
	// Front returns the first element, or ok=false when empty.
	Front() (v int, ok bool)
	// Back returns the last element, or ok=false when empty.
	Back() (v int, ok bool)
	// Next returns the element after v, or ok=false at the end.
	Next(v int) (w int, ok bool)
	// Prev returns the element before v, or ok=false at the beginning.
	Prev(v int) (w int, ok bool)
}

// Kind selects a List implementation.
type Kind int

const (
	// KindTreap selects the order-statistics treap (the paper's choice).
	KindTreap Kind = iota
	// KindTagList selects the labeled list with O(1) comparisons.
	KindTagList
)

// String returns a human-readable implementation name.
func (k Kind) String() string {
	switch k {
	case KindTreap:
		return "treap"
	case KindTagList:
		return "taglist"
	default:
		return "unknown"
	}
}

// NewList constructs an empty List of the given kind on its own private
// arena. The seed deterministically drives any internal randomization.
func NewList(k Kind, seed uint64) List {
	return NewListOn(NewArena(), k, seed)
}

// NewListOn constructs an empty List of the given kind whose nodes live on
// the shared arena a. Lists sharing an arena must hold pairwise disjoint
// vertex sets (see Arena).
func NewListOn(a *Arena, k Kind, seed uint64) List {
	switch k {
	case KindTagList:
		return NewTagListOn(a)
	default:
		return NewTreapOn(a, seed)
	}
}

// Slice returns the list contents front to back. Intended for tests and
// diagnostics; costs O(n).
func Slice(l List) []int {
	out := make([]int, 0, l.Len())
	for v, ok := l.Front(); ok; v, ok = l.Next(v) {
		out = append(out, v)
	}
	return out
}
