package kcore

import (
	"testing"

	"kcore/internal/gen"
	"kcore/internal/workload"
)

// TestRebuildMatchesMaintainedCores: the recompute path must land on the
// same core numbers as incremental maintenance, with the documented coarse
// BatchInfo and net-diff subscriber events.
func TestRebuildMatchesMaintainedCores(t *testing.T) {
	g := gen.ErdosRenyi(300, 600, 41)
	base := g.Edges()
	ops := workload.Churn(g, 900, workload.ChurnOptions{AddFraction: 0.7, Seed: 43})
	var batch Batch
	for _, op := range ops {
		if op.Insert {
			batch = append(batch, Add(op.E.U, op.E.V))
		} else {
			batch = append(batch, Remove(op.E.U, op.E.V))
		}
	}

	maintE, err := FromEdges(base, WithRebuildThreshold(-1, 0))
	if err != nil {
		t.Fatal(err)
	}
	rebuildE, err := FromEdges(base, WithRebuildThreshold(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	oldCores := rebuildE.Cores()
	ch, cancel := rebuildE.Subscribe(WithBuffer(1 << 14))
	defer cancel()

	mInfo, err := maintE.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	rInfo, err := rebuildE.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if mInfo.Recomputed || !rInfo.Recomputed {
		t.Fatalf("Recomputed flags wrong: maintain %v rebuild %v", mInfo.Recomputed, rInfo.Recomputed)
	}
	if rInfo.Updates != nil {
		t.Fatal("recomputed batch must not carry per-update attribution")
	}
	if rInfo.Applied != mInfo.Applied || rInfo.Seq != mInfo.Seq {
		t.Fatalf("applied/seq mismatch: %+v vs %+v", rInfo, mInfo)
	}
	mc, rc := maintE.Cores(), rebuildE.Cores()
	if len(mc) != len(rc) {
		t.Fatalf("vertex counts differ: %d vs %d", len(mc), len(rc))
	}
	for v := range mc {
		if mc[v] != rc[v] {
			t.Fatalf("core(%d): maintained %d, recomputed %d", v, mc[v], rc[v])
		}
	}
	if err := rebuildE.Validate(); err != nil {
		t.Fatal(err)
	}
	// Total.CoreChanged is the ascending net diff; events mirror it.
	prev := -1
	for _, v := range rInfo.Total.CoreChanged {
		if v <= prev {
			t.Fatalf("net diff not ascending: %v", rInfo.Total.CoreChanged)
		}
		prev = v
		old := 0
		if v < len(oldCores) {
			old = oldCores[v]
		}
		if rc[v] == old {
			t.Fatalf("vertex %d in net diff but core unchanged (%d)", v, old)
		}
	}
	evs := drain(ch)
	if len(evs) != len(rInfo.Total.CoreChanged) {
		t.Fatalf("rebuild events = %d, want %d", len(evs), len(rInfo.Total.CoreChanged))
	}
	for i, ev := range evs {
		v := rInfo.Total.CoreChanged[i]
		old := 0
		if v < len(oldCores) {
			old = oldCores[v]
		}
		want := CoreChange{Vertex: v, OldCore: old, NewCore: rc[v], Seq: rInfo.Seq}
		if ev != want {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	if st := rebuildE.ExecStats(); st.Recomputed == 0 || st.Sequential != 0 {
		t.Fatalf("exec stats %+v: expected pure recompute", st)
	}
}

// TestRebuildCostModelRouting: small batches stay incremental, whole-graph
// rewrites recompute, and the floor/disable knobs are honored.
func TestRebuildCostModelRouting(t *testing.T) {
	big := gen.ErdosRenyi(500, 2000, 47)
	e, err := FromEdges(big.Edges())
	if err != nil {
		t.Fatal(err)
	}
	// A handful of updates on a big graph: incremental.
	info, err := e.Apply(Batch{Add(0, 1), Add(0, 2)})
	if err == nil && info.Recomputed {
		t.Fatal("tiny batch recomputed")
	}
	// A batch dwarfing the graph: recomputed (default thresholds).
	fresh := NewEngine()
	edges := gen.ErdosRenyi(400, 1200, 49).Edges()
	batch := make(Batch, len(edges))
	for i, ed := range edges {
		batch[i] = Add(ed[0], ed[1])
	}
	info, err = fresh.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recomputed {
		t.Fatal("graph-sized batch not recomputed under default thresholds")
	}
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
	// Single-update public calls must never route to rebuild, even under a
	// pathologically eager threshold — they rely on per-update attribution
	// (regression: AddEdge used to panic on Updates[0] here).
	eager := NewEngine(WithRebuildThreshold(0, 0.5))
	if ui, err := eager.AddEdge(0, 1); err != nil || ui.Visited < 0 {
		t.Fatalf("AddEdge under eager rebuild threshold: %v", err)
	}
	if ui, err := eager.RemoveEdge(0, 1); err != nil || len(ui.CoreChanged) != 2 {
		t.Fatalf("RemoveEdge under eager rebuild threshold: %v", err)
	}
	// Same batch with recomputation disabled: incremental, same cores.
	off := NewEngine(WithRebuildThreshold(-1, 0))
	info2, err := off.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Recomputed {
		t.Fatal("recomputation ran while disabled")
	}
	a, b := fresh.Cores(), off.Cores()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("core(%d) differs between rebuild and maintain: %d vs %d", v, a[v], b[v])
		}
	}
}

// TestLargeBatchRunsSequentially: a 512-update churn batch under the rebuild
// threshold runs through per-update maintenance whatever WithWorkers says,
// and the deprecated concurrent-runtime counters stay zero. The batch
// interleaves removals of existing edges with insertions of distinct
// non-edges, so nothing coalesces.
func TestLargeBatchRunsSequentially(t *testing.T) {
	g := gen.ErdosRenyi(2000, 8000, 51)
	removes := workload.SampleEdges(g, 256, 53)
	adds := workload.SampleNonEdges(g, 256, 59)
	batch := make(Batch, 0, 512)
	for i := range removes {
		batch = append(batch, Remove(removes[i].U, removes[i].V), Add(adds[i].U, adds[i].V))
	}
	e, err := FromEdges(g.Edges(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recomputed || info.Applied != 512 {
		t.Fatalf("applied %d (recomputed %v): want 512 maintained updates", info.Applied, info.Recomputed)
	}
	if st := e.ExecStats(); st != (ExecStats{Sequential: 512}) {
		t.Fatalf("exec stats %+v: want all 512 updates sequential", st)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}
