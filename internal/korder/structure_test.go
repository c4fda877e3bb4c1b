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
