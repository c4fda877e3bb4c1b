package kcore

// The maintain-vs-recompute hybrid. Per-update maintenance touches only a
// small neighborhood of each edge, but when a batch rewrites a large
// fraction of the graph, replaying it edge by edge loses to a single
// O(m + n) recomputation (the static peel that builds the engine in the
// first place). A cost-model switch routes such batches to applyRebuild
// instead; see WithRebuildThreshold.

// shouldRebuild is the maintain-vs-recompute cost model: recompute when the
// surviving batch is at least the configured fraction of the post-batch
// graph size (m + n, the O(m + n) peel's input) and clears the floor that
// keeps small batches on the cheap incremental path. The default fraction
// is measured — see the rebuild-crossover rows of BENCH_parallel.json.
func (e *Engine) shouldRebuild(applied, adds, removes int) bool {
	if e.cfg.rebuildFloor < 0 || applied < e.cfg.rebuildFloor {
		return false
	}
	mAfter := e.g.NumEdges() + adds - removes
	return float64(applied) >= e.cfg.rebuildFrac*float64(mAfter+e.g.NumVertices())
}

// applyRebuild applies the batch by wholesale recomputation: mutate the
// graph directly, then reseed the maintainer from one static O(m + n)
// decomposition. Per-update attribution is lost — see BatchInfo.Recomputed
// for the coarsened result semantics.
func (e *Engine) applyRebuild(batch Batch, skip []bool, coalesced int) (BatchInfo, error) {
	// Between batches the published epoch equals the maintained cores, so
	// it is the pre-batch state the net effect is diffed against.
	prev := e.loadEpoch()
	info := BatchInfo{Coalesced: coalesced, Recomputed: true}
	for i, up := range batch {
		if skip != nil && skip[i] {
			continue
		}
		var err error
		if up.Op == OpAdd {
			err = e.g.AddEdge(up.U, up.V)
		} else {
			err = e.g.RemoveEdge(up.U, up.V)
		}
		if err != nil {
			// Unreachable after validation. Reseed anyway so the maintained
			// state matches the partially mutated graph before reporting.
			e.m.Reseed()
			info.Seq = e.seq
			return info, &BatchError{Index: i, Update: up, Err: err}
		}
		e.seq++
		e.seqEdges = e.g.NumEdges()
		info.Applied++
		e.exec.Recomputed++
	}
	e.m.Reseed()
	info.Seq = e.seq
	diff := e.diffSince(prev)
	for _, c := range diff {
		info.Total.CoreChanged = append(info.Total.CoreChanged, c.Vertex)
	}
	info.Total.Visited = e.g.NumVertices()
	if e.changeHooks > 0 {
		e.changes = diff
	}
	return info, nil
}

// diffSince returns one CoreChange per vertex whose maintained core number
// differs from its core in ep, in ascending vertex order, all tagged with
// the current seq. Vertices created since ep had core 0, and vertices ep
// had that the graph no longer has (after Restore) now have core 0. The
// caller holds the write lock.
func (e *Engine) diffSince(ep *epoch) []CoreChange {
	var diff []CoreChange
	for v := 0; v < max(ep.vertices, e.g.NumVertices()); v++ {
		if old, c := ep.core(v), e.m.Core(v); c != old {
			diff = append(diff, CoreChange{Vertex: v, OldCore: old, NewCore: c, Seq: e.seq})
		}
	}
	return diff
}
