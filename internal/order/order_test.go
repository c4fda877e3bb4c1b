package order

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refList is the reference model: a plain slice.
type refList struct {
	vals []int
}

func (r *refList) index(v int) int {
	for i, x := range r.vals {
		if x == v {
			return i
		}
	}
	return -1
}

func (r *refList) pushFront(v int)       { r.vals = append([]int{v}, r.vals...) }
func (r *refList) pushBack(v int)        { r.vals = append(r.vals, v) }
func (r *refList) insertAfter(a, v int)  { r.insertAt(r.index(a)+1, v) }
func (r *refList) insertBefore(b, v int) { r.insertAt(r.index(b), v) }
func (r *refList) insertAt(i int, v int) {
	r.vals = append(r.vals, 0)
	copy(r.vals[i+1:], r.vals[i:])
	r.vals[i] = v
}
func (r *refList) remove(v int) {
	i := r.index(v)
	r.vals = append(r.vals[:i], r.vals[i+1:]...)
}

func kinds() []Kind { return []Kind{KindTreap, KindTagList} }

func TestKindString(t *testing.T) {
	if KindTreap.String() != "treap" || KindTagList.String() != "taglist" {
		t.Fatal("Kind.String broken")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

func TestBasicSequence(t *testing.T) {
	for _, k := range kinds() {
		l := NewList(k, 42)
		if l.Len() != 0 {
			t.Fatalf("%v: new list not empty", k)
		}
		if _, ok := l.Front(); ok {
			t.Fatalf("%v: Front on empty", k)
		}
		if _, ok := l.Back(); ok {
			t.Fatalf("%v: Back on empty", k)
		}
		l.PushBack(10)
		l.PushBack(20)
		l.PushFront(5)
		l.InsertAfter(10, 15)
		l.InsertBefore(5, 1)
		// Order should be 1 5 10 15 20.
		want := []int{1, 5, 10, 15, 20}
		got := Slice(l)
		if len(got) != len(want) {
			t.Fatalf("%v: got %v", k, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: got %v want %v", k, got, want)
			}
		}
		for i, v := range want {
			if l.Rank(v) != i+1 {
				t.Fatalf("%v: Rank(%d)=%d want %d", k, v, l.Rank(v), i+1)
			}
		}
		if !l.Less(1, 20) || l.Less(20, 1) || l.Less(10, 10) {
			t.Fatalf("%v: Less broken", k)
		}
		if f, _ := l.Front(); f != 1 {
			t.Fatalf("%v: Front=%d", k, f)
		}
		if b, _ := l.Back(); b != 20 {
			t.Fatalf("%v: Back=%d", k, b)
		}
		if n, ok := l.Next(5); !ok || n != 10 {
			t.Fatalf("%v: Next(5)=%d,%v", k, n, ok)
		}
		if p, ok := l.Prev(5); !ok || p != 1 {
			t.Fatalf("%v: Prev(5)=%d,%v", k, p, ok)
		}
		if _, ok := l.Next(20); ok {
			t.Fatalf("%v: Next(last) should fail", k)
		}
		if _, ok := l.Prev(1); ok {
			t.Fatalf("%v: Prev(first) should fail", k)
		}
		l.Remove(10)
		if l.Contains(10) {
			t.Fatalf("%v: Contains after Remove", k)
		}
		if n, _ := l.Next(5); n != 15 {
			t.Fatalf("%v: Next after Remove = %d", k, n)
		}
		if l.Len() != 4 {
			t.Fatalf("%v: Len=%d", k, l.Len())
		}
	}
}

func TestRemoveAll(t *testing.T) {
	for _, k := range kinds() {
		l := NewList(k, 1)
		for i := 0; i < 100; i++ {
			l.PushBack(i)
		}
		for i := 0; i < 100; i += 2 {
			l.Remove(i)
		}
		for i := 99; i >= 1; i -= 2 {
			l.Remove(i)
		}
		if l.Len() != 0 {
			t.Fatalf("%v: Len=%d after removing all", k, l.Len())
		}
		// Reuse after emptying.
		l.PushFront(7)
		if r := l.Rank(7); r != 1 {
			t.Fatalf("%v: Rank after reuse = %d", k, r)
		}
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	for _, k := range kinds() {
		l := NewList(k, 1)
		l.PushBack(1)
		mustPanic(t, func() { l.PushBack(1) })
		mustPanic(t, func() { l.Remove(2) })
		mustPanic(t, func() { l.InsertAfter(9, 3) })
		mustPanic(t, func() { l.InsertBefore(9, 3) })
		mustPanic(t, func() { l.Rank(9) })
		mustPanic(t, func() { _, _ = l.Next(9) })
		mustPanic(t, func() { _, _ = l.Prev(9) })
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestRandomizedAgainstModel drives both implementations with the same
// random operation stream and compares against the slice model after each
// step, including rank and order queries.
func TestRandomizedAgainstModel(t *testing.T) {
	for _, k := range kinds() {
		rng := rand.New(rand.NewPCG(9, uint64(k)))
		l := NewList(k, 99)
		ref := &refList{}
		present := map[int]bool{}
		nextID := 0
		for step := 0; step < 4000; step++ {
			op := rng.IntN(5)
			switch {
			case op == 0 || len(ref.vals) == 0:
				v := nextID
				nextID++
				if rng.IntN(2) == 0 {
					l.PushFront(v)
					ref.pushFront(v)
				} else {
					l.PushBack(v)
					ref.pushBack(v)
				}
				present[v] = true
			case op == 1:
				anchor := ref.vals[rng.IntN(len(ref.vals))]
				v := nextID
				nextID++
				if rng.IntN(2) == 0 {
					l.InsertAfter(anchor, v)
					ref.insertAfter(anchor, v)
				} else {
					l.InsertBefore(anchor, v)
					ref.insertBefore(anchor, v)
				}
				present[v] = true
			case op == 2:
				v := ref.vals[rng.IntN(len(ref.vals))]
				l.Remove(v)
				ref.remove(v)
				delete(present, v)
			case op == 3 && len(ref.vals) >= 2:
				i, j := rng.IntN(len(ref.vals)), rng.IntN(len(ref.vals))
				a, b := ref.vals[i], ref.vals[j]
				if got, want := l.Less(a, b), i < j; got != want {
					t.Fatalf("%v step %d: Less(%d,%d)=%v want %v", k, step, a, b, got, want)
				}
			default:
				i := rng.IntN(len(ref.vals))
				v := ref.vals[i]
				if got := l.Rank(v); got != i+1 {
					t.Fatalf("%v step %d: Rank(%d)=%d want %d", k, step, v, got, i+1)
				}
			}
			if l.Len() != len(ref.vals) {
				t.Fatalf("%v step %d: Len=%d want %d", k, step, l.Len(), len(ref.vals))
			}
			if tr, ok := l.(*Treap); ok && step%200 == 0 {
				if err := tr.checkInvariants(); err != nil {
					t.Fatalf("treap invariants at step %d: %v", step, err)
				}
			}
		}
		// Full sequence comparison at the end.
		got := Slice(l)
		for i := range ref.vals {
			if got[i] != ref.vals[i] {
				t.Fatalf("%v: final sequence mismatch at %d: %v vs %v", k, i, got[i], ref.vals[i])
			}
		}
	}
}

func TestTreapInvariantsAfterHeavyChurn(t *testing.T) {
	tr := NewTreap(5)
	for i := 0; i < 2000; i++ {
		tr.PushBack(i)
	}
	for i := 0; i < 2000; i += 3 {
		tr.Remove(i)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Interior inserts.
	for i := 2000; i < 2500; i++ {
		tr.InsertAfter(1, i)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTagListRenumbering(t *testing.T) {
	tl := NewTagList()
	tl.PushBack(0)
	// Repeated insertion right after the head exhausts the local gap and
	// must trigger renumbering rather than failing.
	for i := 1; i < 200; i++ {
		tl.InsertAfter(0, i)
	}
	if tl.Renumbers() == 0 {
		t.Fatal("dense insertion after the head never renumbered")
	}
	// Order: 0, 199, 198, ..., 1.
	if r := tl.Rank(0); r != 1 {
		t.Fatalf("Rank(0)=%d", r)
	}
	if !tl.Less(199, 1) {
		t.Fatal("tag order wrong after dense insertion")
	}
	got := Slice(tl)
	if len(got) != 200 {
		t.Fatalf("len=%d", len(got))
	}
	for i := 1; i < 199; i++ {
		if got[i] != 200-i {
			t.Fatalf("sequence wrong at %d: %v...", i, got[:5])
		}
	}
}

// TestTagListRelabelWork bounds the local relabeling cost: from a 30k-element
// list, 200k inserts in each of the insertion patterns core maintenance
// produces (front, back, after a fixed anchor, after the newest element)
// must each average at most 32 relabeled elements per insert, where a
// whole-list renumber would cost thousands, and must leave the reference
// sequence with strictly increasing tags.
func TestTagListRelabelWork(t *testing.T) {
	const base, inserts = 30_000, 200_000
	patterns := []struct {
		name   string
		insert func(l List, anchor, newest, v int)
	}{
		{"front", func(l List, _, _, v int) { l.PushFront(v) }},
		{"back", func(l List, _, _, v int) { l.PushBack(v) }},
		{"after-anchor", func(l List, anchor, _, v int) { l.InsertAfter(anchor, v) }},
		{"after-newest", func(l List, _, newest, v int) { l.InsertAfter(newest, v) }},
	}
	for _, p := range patterns {
		t.Run(p.name, func(t *testing.T) {
			tl := NewTagList()
			ref := newPtrList()
			for v := 0; v < base; v++ {
				tl.PushBack(v)
				ref.PushBack(v)
			}
			start := tl.relabeled
			anchor, newest := base/2, base/2
			for v := base; v < base+inserts; v++ {
				p.insert(tl, anchor, newest, v)
				p.insert(ref, anchor, newest, v)
				newest = v
			}
			perInsert := float64(tl.relabeled-start) / inserts
			t.Logf("%.2f elements relabeled per insert, %d relabel passes", perInsert, tl.Renumbers())
			if perInsert > 32 {
				t.Errorf("%.2f elements relabeled per insert, want <= 32", perInsert)
			}
			v, ok := tl.Front()
			rv, rok := ref.Front()
			var prev uint64
			for i := 0; rok; i++ {
				if !ok || v != rv {
					t.Fatalf("position %d: (%d,%v) want %d", i, v, ok, rv)
				}
				k := tl.Key(v)
				if i > 0 && k <= prev {
					t.Fatalf("position %d: tag %d not above %d", i, k, prev)
				}
				prev = k
				v, ok = tl.Next(v)
				rv, rok = ref.Next(rv)
			}
			if ok {
				t.Fatal("tag list longer than the reference")
			}
		})
	}
}

// TestTagListRelabelAtEnds exhausts the tag space at both ends of a list,
// where a relabel has a labeled neighbor on one side only: the head's tag
// at 1 and the tail's at MaxUint64-1. PushFront and PushBack step by
// endGap, so reaching either edge by inserts alone takes 2^31 of them; the
// test packs the end tags against the edges directly instead.
func TestTagListRelabelAtEnds(t *testing.T) {
	tl := NewTagList()
	ref := newPtrList()
	for v := 0; v < 8; v++ {
		tl.PushBack(v)
		ref.PushBack(v)
	}
	for i, h := 0, tl.head; h != 0; i, h = i+1, tl.a.next[h] {
		if i < 4 {
			tl.a.kv[h].key = uint64(i + 1)
		} else {
			tl.a.kv[h].key = math.MaxUint64 - uint64(8-i)
		}
	}
	for v := 8; v < 108; v++ {
		if v%2 == 0 {
			tl.PushFront(v)
			ref.PushFront(v)
		} else {
			tl.PushBack(v)
			ref.PushBack(v)
		}
	}
	if tl.Renumbers() < 2 {
		t.Fatalf("%d relabel passes; both ends should have relabeled", tl.Renumbers())
	}
	checkAgainst(t, "taglist-ends", tl, ref)
}

func TestKeyMonotone(t *testing.T) {
	for _, k := range kinds() {
		l := NewList(k, 3)
		for i := 0; i < 200; i++ {
			l.PushBack(i)
		}
		// Interleave interior inserts.
		for i := 200; i < 260; i++ {
			l.InsertAfter(i%200, i)
		}
		seq := Slice(l)
		for i := 1; i < len(seq); i++ {
			if l.Key(seq[i-1]) >= l.Key(seq[i]) {
				t.Fatalf("%v: Key not strictly monotone at position %d", k, i)
			}
		}
		mustPanic(t, func() { l.Key(9999) })
	}
}

func TestMinHeap(t *testing.T) {
	var h MinHeap
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap")
	}
	keys := []uint64{5, 3, 9, 1, 7, 3, 2}
	for i, k := range keys {
		h.Push(k, i)
	}
	prev := uint64(0)
	n := 0
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		if it.Key < prev {
			t.Fatalf("heap order violated: %d after %d", it.Key, prev)
		}
		prev = it.Key
		n++
	}
	if n != len(keys) {
		t.Fatalf("popped %d items, want %d", n, len(keys))
	}
	h.Push(4, 0)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestMinHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var h MinHeap
	var model []uint64
	for i := 0; i < 3000; i++ {
		if rng.IntN(3) != 0 || len(model) == 0 {
			k := rng.Uint64() % 1000
			h.Push(k, i)
			model = append(model, k)
		} else {
			it, ok := h.Pop()
			if !ok {
				t.Fatal("Pop failed with non-empty model")
			}
			minIdx := 0
			for j, k := range model {
				if k < model[minIdx] {
					minIdx = j
				}
			}
			if it.Key != model[minIdx] {
				t.Fatalf("popped %d, model min %d", it.Key, model[minIdx])
			}
			model = append(model[:minIdx], model[minIdx+1:]...)
		}
	}
}

func BenchmarkTreapPushBack(b *testing.B) {
	tr := NewTreap(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.PushBack(i)
	}
}

func BenchmarkTreapLess(b *testing.B) {
	tr := NewTreap(1)
	for i := 0; i < 100000; i++ {
		tr.PushBack(i)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := rng.IntN(100000), rng.IntN(100000)
		_ = tr.Less(a, c)
	}
}

func BenchmarkTagListLess(b *testing.B) {
	tl := NewTagList()
	for i := 0; i < 100000; i++ {
		tl.PushBack(i)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := rng.IntN(100000), rng.IntN(100000)
		_ = tl.Less(a, c)
	}
}
