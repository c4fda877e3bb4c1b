package order

import (
	"math/rand/v2"
	"testing"
)

// Differential tests: the arena-backed structures must be behaviorally
// identical to a pointer-based container/list reference, including when
// several lists share one arena and vertices migrate between them (the
// korder level-migration pattern).

// checkAgainst compares every observable of l against the oracle ref.
func checkAgainst(t *testing.T, tag string, l, ref List) {
	t.Helper()
	if l.Len() != ref.Len() {
		t.Fatalf("%s: Len=%d want %d", tag, l.Len(), ref.Len())
	}
	lf, lok := l.Front()
	rf, rok := ref.Front()
	if lok != rok || lf != rf {
		t.Fatalf("%s: Front=(%d,%v) want (%d,%v)", tag, lf, lok, rf, rok)
	}
	lb, lok := l.Back()
	rb, rok := ref.Back()
	if lok != rok || lb != rb {
		t.Fatalf("%s: Back=(%d,%v) want (%d,%v)", tag, lb, lok, rb, rok)
	}
	// Full forward walk: sequence, Next, Prev, Rank, Less vs predecessor.
	prev := -1
	rank := 0
	for v, ok := ref.Front(); ok; v, ok = ref.Next(v) {
		rank++
		if !l.Contains(v) {
			t.Fatalf("%s: Contains(%d)=false", tag, v)
		}
		if got := l.Rank(v); got != rank {
			t.Fatalf("%s: Rank(%d)=%d want %d", tag, v, got, rank)
		}
		if prev >= 0 {
			if !l.Less(prev, v) || l.Less(v, prev) {
				t.Fatalf("%s: Less(%d,%d) disagrees with order", tag, prev, v)
			}
			if p, ok := l.Prev(v); !ok || p != prev {
				t.Fatalf("%s: Prev(%d)=(%d,%v) want %d", tag, v, p, ok, prev)
			}
			if n, ok := l.Next(prev); !ok || n != v {
				t.Fatalf("%s: Next(%d)=(%d,%v) want %d", tag, prev, n, ok, v)
			}
		}
		prev = v
	}
	if rank != l.Len() {
		t.Fatalf("%s: walked %d elements, Len=%d", tag, rank, l.Len())
	}
}

// TestDifferentialSharedArena drives random insert/remove/move sequences
// through several lists sharing ONE arena and a container/list oracle per
// list, asserting Rank/Less/Next/Prev (and everything else observable)
// agree after every batch of operations. Vertex moves between lists
// exercise the level-migration slot reuse.
func TestDifferentialSharedArena(t *testing.T) {
	const lists = 4
	for _, k := range kinds() {
		rng := rand.New(rand.NewPCG(7, uint64(k)))
		a := NewArena()
		var impl [lists]List
		var ref [lists]List
		for i := range impl {
			impl[i] = NewListOn(a, k, uint64(100+i))
			ref[i] = newPtrList()
		}
		where := map[int]int{} // vertex -> list index
		var vs []int
		nextID := 0

		insert := func(li int, v int) {
			l, r := impl[li], ref[li]
			switch {
			case l.Len() == 0 || rng.IntN(4) == 0:
				if rng.IntN(2) == 0 {
					l.PushFront(v)
					r.PushFront(v)
				} else {
					l.PushBack(v)
					r.PushBack(v)
				}
			default:
				// Anchor on a random existing element of this list.
				anchor := -1
				for _, w := range vs {
					if where[w] == li && rng.IntN(3) == 0 {
						anchor = w
						break
					}
				}
				if anchor < 0 {
					anchor, _ = r.Front()
				}
				if rng.IntN(2) == 0 {
					l.InsertAfter(anchor, v)
					r.InsertAfter(anchor, v)
				} else {
					l.InsertBefore(anchor, v)
					r.InsertBefore(anchor, v)
				}
			}
			where[v] = li
		}

		for step := 0; step < 3000; step++ {
			switch op := rng.IntN(10); {
			case op < 4 || len(vs) == 0: // insert a fresh vertex
				v := nextID
				nextID++
				insert(rng.IntN(lists), v)
				vs = append(vs, v)
			case op < 6: // remove a vertex outright
				i := rng.IntN(len(vs))
				v := vs[i]
				li := where[v]
				impl[li].Remove(v)
				ref[li].Remove(v)
				delete(where, v)
				vs[i] = vs[len(vs)-1]
				vs = vs[:len(vs)-1]
			default: // migrate a vertex to another list (level move)
				v := vs[rng.IntN(len(vs))]
				li := where[v]
				before := a.Len()
				impl[li].Remove(v)
				ref[li].Remove(v)
				to := (li + 1 + rng.IntN(lists-1)) % lists
				insert(to, v)
				if a.Len() != before {
					t.Fatalf("%v: migration changed arena node count %d -> %d (slot not reused)",
						k, before, a.Len())
				}
			}
			if step%50 == 0 || step > 2900 {
				for i := range impl {
					checkAgainst(t, k.String(), impl[i], ref[i])
				}
			}
		}
		if a.Len() != len(vs) {
			t.Fatalf("%v: arena holds %d nodes, %d vertices live", k, a.Len(), len(vs))
		}
	}
}

// FuzzListOps interprets the fuzz input as an operation stream and runs it
// through the arena treap, the arena tag list, and the container/list
// reference simultaneously, requiring identical observable behavior.
func FuzzListOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x43, 0x85, 0x16, 0xff, 3, 9})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87})
	// Two PushBacks, then 120 InsertBefore calls at the second element,
	// each followed by a query: the midpoints exhaust the tag gap in front
	// of the anchor within a few dozen inserts, so the rest force local
	// relabels.
	relabel := []byte{1, 0, 1, 0}
	for i := 0; i < 120; i++ {
		relabel = append(relabel, 3, 1, 5, byte(i))
	}
	f.Add(relabel)
	f.Fuzz(func(t *testing.T, data []byte) {
		impls := []List{NewTreap(1), NewTagList(), newPtrList()}
		var vs []int
		nextID := 0
		for pc := 0; pc+1 < len(data); pc += 2 {
			op, arg := data[pc]%6, int(data[pc+1])
			switch {
			case op <= 1 || len(vs) == 0: // insert front/back
				v := nextID
				nextID++
				for _, l := range impls {
					if op == 0 {
						l.PushFront(v)
					} else {
						l.PushBack(v)
					}
				}
				vs = append(vs, v)
			case op <= 3: // insert relative to an existing element
				anchor := vs[arg%len(vs)]
				v := nextID
				nextID++
				for _, l := range impls {
					if op == 2 {
						l.InsertAfter(anchor, v)
					} else {
						l.InsertBefore(anchor, v)
					}
				}
				vs = append(vs, v)
			case op == 4: // remove
				i := arg % len(vs)
				v := vs[i]
				for _, l := range impls {
					l.Remove(v)
				}
				vs[i] = vs[len(vs)-1]
				vs = vs[:len(vs)-1]
			default: // query: ranks and pairwise order must agree
				a := vs[arg%len(vs)]
				ref := impls[2]
				want := ref.Rank(a)
				for _, l := range impls[:2] {
					if got := l.Rank(a); got != want {
						t.Fatalf("Rank(%d): %d want %d", a, got, want)
					}
				}
				b := vs[(arg*7+1)%len(vs)]
				wantLess := ref.Less(a, b)
				for _, l := range impls[:2] {
					if got := l.Less(a, b); got != wantLess {
						t.Fatalf("Less(%d,%d): %v want %v", a, b, got, wantLess)
					}
				}
			}
		}
		// Final full-sequence agreement.
		ref := impls[2]
		for _, l := range impls[:2] {
			if l.Len() != ref.Len() {
				t.Fatalf("Len %d want %d", l.Len(), ref.Len())
			}
			v, ok := l.Front()
			rv, rok := ref.Front()
			for rok {
				if !ok || v != rv {
					t.Fatalf("sequence diverges: (%d,%v) want (%d,%v)", v, ok, rv, rok)
				}
				v, ok = l.Next(v)
				rv, rok = ref.Next(rv)
			}
			if ok {
				t.Fatalf("implementation longer than reference")
			}
		}
	})
}

// TestTagListGapExhaustion forces tag-gap exhaustion between two adjacent
// elements and verifies renumbering keeps the order intact (differentially
// against the reference) while bumping Renumbers().
func TestTagListGapExhaustion(t *testing.T) {
	tl := NewTagList()
	ref := newPtrList()
	tl.PushBack(0)
	ref.PushBack(0)
	tl.PushBack(1)
	ref.PushBack(1)
	// Inserting always immediately before 1 halves the (0, 1) tag gap each
	// time; 64-bit tags guarantee exhaustion within ~64 inserts, after which
	// every further insert must renumber rather than corrupt the order.
	for v := 2; v < 202; v++ {
		tl.InsertBefore(1, v)
		ref.InsertBefore(1, v)
	}
	if tl.Renumbers() == 0 {
		t.Fatal("200 midpoint insertions did not exhaust a 64-bit tag gap")
	}
	checkAgainst(t, "taglist-exhaustion", tl, ref)

	// Same stress on a shared arena with a sibling list present: renumbering
	// must only touch the exhausted list.
	a := NewArena()
	shared := NewTagListOn(a)
	sibling := NewTagListOn(a)
	sibRef := newPtrList()
	for v := 1000; v < 1010; v++ {
		sibling.PushBack(v)
		sibRef.PushBack(v)
	}
	shared.PushBack(0)
	shared.PushBack(1)
	for v := 2; v < 150; v++ {
		shared.InsertBefore(1, v)
	}
	if shared.Renumbers() == 0 {
		t.Fatal("shared-arena list did not renumber")
	}
	checkAgainst(t, "taglist-sibling", sibling, sibRef)
}
