package korder

import (
	"reflect"
	"slices"
	"testing"

	"kcore/internal/decomp"
	"kcore/internal/gen"
	"kcore/internal/order"
	"kcore/internal/workload"
)

// TestOrderStructuresAgree is the bit-identity differential between the two
// order structures: a skewed churn stream over a hub-heavy graph must give
// the same UpdateResult for every update on a treap maintainer and on a
// tag-list maintainer (the kcore engine's structure), and the same cores
// and k-order every 512 updates and after a final Reseed.
func TestOrderStructuresAgree(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 5, 23)
	ops := workload.Churn(g, 24_000, workload.ChurnOptions{Skew: 0.6, Seed: 29})
	opts := Options{Heuristic: decomp.SmallDegPlusFirst, Seed: 1}
	treap := New(g.Clone(), opts)
	opts.OrderKind = order.KindTagList
	tag := New(g, opts)
	sameIndex := func(at int) {
		t.Helper()
		if !slices.Equal(treap.Cores(), tag.Cores()) || !slices.Equal(treap.Order(), tag.Order()) {
			t.Fatalf("op %d: cores or k-order differ between treap and tag list", at)
		}
	}
	sameIndex(0)
	for i, op := range ops {
		update := (*Maintainer).Remove
		if op.Insert {
			update = (*Maintainer).Insert
		}
		tr, terr := update(treap, op.E.U, op.E.V)
		gr, gerr := update(tag, op.E.U, op.E.V)
		if terr != nil || gerr != nil {
			t.Fatalf("op %d: %v / %v", i, terr, gerr)
		}
		if !reflect.DeepEqual(tr, gr) {
			t.Fatalf("op %d: UpdateResult differs\ntreap %+v\ntag   %+v", i, tr, gr)
		}
		if (i+1)%512 == 0 {
			sameIndex(i)
		}
	}
	sameIndex(len(ops))
	treap.Reseed()
	tag.Reseed()
	sameIndex(len(ops))
	for _, m := range []*Maintainer{treap, tag} {
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertStopsAtLastCandidate drives seeded churn over small random
// graphs until one Insert returns with no core change after expanding more
// than its root while entries are still queued in the jump heap B: the scan
// ended when its last candidate was evicted, before B drained. Up to that
// insert, the tag-list maintainer must agree with a treap maintainer fed
// the same stream, update by update, on cores and k-order, and both must
// pass CheckInvariants.
func TestInsertStopsAtLastCandidate(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := gen.ErdosRenyi(40, 100, seed)
		ops := workload.Churn(g, 2000, workload.ChurnOptions{Skew: 0.5, Seed: seed})
		opts := Options{Heuristic: decomp.SmallDegPlusFirst}
		treap := New(g.Clone(), opts)
		opts.OrderKind = order.KindTagList
		tag := New(g, opts)
		for i, op := range ops {
			update := (*Maintainer).Remove
			if op.Insert {
				update = (*Maintainer).Insert
			}
			tr, terr := update(treap, op.E.U, op.E.V)
			gr, gerr := update(tag, op.E.U, op.E.V)
			if terr != nil || gerr != nil {
				t.Fatalf("seed %d op %d: %v / %v", seed, i, terr, gerr)
			}
			if !slices.Equal(tr.Changed, gr.Changed) || tr.Visited != gr.Visited {
				t.Fatalf("seed %d op %d: treap %+v, tag list %+v", seed, i, tr, gr)
			}
			if !op.Insert || len(gr.Changed) > 0 || gr.Visited < 2 || tag.heap.Len() == 0 {
				continue
			}
			if !slices.Equal(treap.Cores(), tag.Cores()) || !slices.Equal(treap.Order(), tag.Order()) {
				t.Fatalf("seed %d op %d: cores or k-order differ between treap and tag list", seed, i)
			}
			for _, m := range []*Maintainer{treap, tag} {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
			}
			return
		}
	}
	t.Fatal("no insert ended with entries left in the jump heap")
}
