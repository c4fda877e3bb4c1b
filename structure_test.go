package kcore

import (
	"reflect"
	"testing"

	"kcore/internal/gen"
	"kcore/internal/workload"
)

// TestOrderStructuresAgree is the bit-identity differential between the two
// order structures: a skewed churn stream over a hub-heavy graph, mostly
// 512-update Apply batches with runs of single-edge AddEdge/RemoveEdge,
// must produce the same BatchInfo/UpdateInfo and the same maintained index
// (cores, k-order, seq) after every write on a treap engine and on a
// default engine, which uses the tag list.
func TestOrderStructuresAgree(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 5, 23)
	ops := workload.Churn(g, 24_000, workload.ChurnOptions{Skew: 0.6, Seed: 29})
	treap, err := FromEdges(g.Edges(), WithOrderStructure(TreapOrder))
	if err != nil {
		t.Fatal(err)
	}
	tag, err := FromEdges(g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	sameIndex := func(at int) {
		t.Helper()
		ts, gs := treap.Index(), tag.Index()
		if ts.Structure != TreapOrder || gs.Structure != TagOrder {
			t.Fatalf("structures = %d, %d; want treap, tag", ts.Structure, gs.Structure)
		}
		gs.Structure = ts.Structure
		if !reflect.DeepEqual(ts, gs) {
			t.Fatalf("op %d: maintained index differs between treap and tag list", at)
		}
	}
	sameIndex(0)
	const batchSize, singles = 512, 24
	for i, unit := 0, 0; i < len(ops); unit++ {
		if unit%4 == 3 {
			for end := min(i+singles, len(ops)); i < end; i++ {
				op := ops[i]
				apply := (*Engine).RemoveEdge
				if op.Insert {
					apply = (*Engine).AddEdge
				}
				ti, terr := apply(treap, op.E.U, op.E.V)
				gi, gerr := apply(tag, op.E.U, op.E.V)
				if terr != nil || gerr != nil {
					t.Fatalf("op %d: %v / %v", i, terr, gerr)
				}
				if !reflect.DeepEqual(ti, gi) || treap.Seq() != tag.Seq() {
					t.Fatalf("op %d: UpdateInfo differs\ntreap %+v seq %d\ntag   %+v seq %d",
						i, ti, treap.Seq(), gi, tag.Seq())
				}
				sameIndex(i)
			}
			continue
		}
		var batch Batch
		for end := min(i+batchSize, len(ops)); i < end; i++ {
			if op := ops[i]; op.Insert {
				batch = append(batch, Add(op.E.U, op.E.V))
			} else {
				batch = append(batch, Remove(op.E.U, op.E.V))
			}
		}
		ti, terr := treap.Apply(batch)
		gi, gerr := tag.Apply(batch)
		if terr != nil || gerr != nil {
			t.Fatalf("batch ending at op %d: %v / %v", i, terr, gerr)
		}
		if ti.Recomputed {
			t.Fatalf("batch ending at op %d was recomputed; the differential needs maintenance", i)
		}
		if !reflect.DeepEqual(ti, gi) {
			t.Fatalf("batch ending at op %d: BatchInfo differs (seq %d vs %d, %d vs %d changed)",
				i, ti.Seq, gi.Seq, len(ti.Total.CoreChanged), len(gi.Total.CoreChanged))
		}
		sameIndex(i)
	}
	for _, e := range []*Engine{treap, tag} {
		if err := e.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
