package kcore

import (
	"fmt"
	"runtime/debug"

	"kcore/internal/korder"
)

// Batched updates: Apply takes the engine's write lock once, pre-validates
// the whole batch against the current graph (tracking intra-batch effects),
// and only then mutates — a batch that fails validation leaves the engine
// untouched. During validation, self-annihilating pairs (an insertion of an
// edge followed by its removal, or vice versa) are coalesced away entirely.
// The surviving updates are then executed by per-update maintenance, one
// update at a time, or — when the batch rewrites a large fraction of the
// graph — by one wholesale O(m + n) recomputation (see rebuild.go).

// Op is the kind of one edge update.
type Op uint8

const (
	// OpAdd inserts an edge.
	OpAdd Op = iota
	// OpRemove deletes an edge.
	OpRemove
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	default:
		return "unknown"
	}
}

// Update is one edge insertion or removal.
type Update struct {
	Op   Op
	U, V int
}

// Add returns an edge-insertion update for use in a Batch.
func Add(u, v int) Update { return Update{Op: OpAdd, U: u, V: v} }

// Remove returns an edge-removal update for use in a Batch.
func Remove(u, v int) Update { return Update{Op: OpRemove, U: u, V: v} }

// Batch is an ordered sequence of edge updates applied as one locked
// operation. Updates may mix insertions and removals and may touch the same
// edge repeatedly (add then remove is valid; adding a present edge is not).
type Batch []Update

// BatchInfo aggregates the effect of an applied batch.
type BatchInfo struct {
	// Applied is the number of updates that took effect. Coalesced updates
	// are not counted.
	Applied int
	// Coalesced is the number of updates cancelled during pre-validation as
	// self-annihilating pairs: an Add(u,v) later undone by a Remove(u,v) in
	// the same batch (or a Remove later undone by an Add) is elided in its
	// entirety. A cancelled pair behaves as if neither update had been
	// submitted — it consumes no sequence numbers, emits no subscriber
	// events (including the transient core changes the pair would have
	// caused), and performs no maintenance work. Coalesced is always even.
	Coalesced int
	// Recomputed reports that the engine applied the batch by one wholesale
	// O(m + n) recomputation instead of per-update maintenance (see
	// WithRebuildThreshold). In that mode per-update attribution does not
	// exist: Updates is nil, Total.CoreChanged lists the net-changed
	// vertices in ascending order, and subscribers receive one event per
	// net-changed vertex (whose cores may differ by more than 1) instead of
	// per-update events.
	Recomputed bool
	// Seq is the engine's update sequence number after the last applied
	// update (see Engine.Seq); it equals the pre-batch value when the batch
	// was empty or fully coalesced.
	Seq uint64
	// Updates holds the per-update effects, one entry per batch position
	// (coalesced positions carry a zero UpdateInfo with Coalesced set).
	// Updates is nil when Recomputed is set.
	Updates []UpdateInfo
	// Total aggregates the batch: CoreChanged lists every vertex whose core
	// number changed at least once during the batch, deduplicated, in
	// first-change order (ascending vertex order when Recomputed); Visited
	// sums the per-update search-space sizes.
	Total UpdateInfo
}

// Apply executes the batch under a single write-lock acquisition.
//
// The batch is validated in full before any mutation: every update is
// checked (in order, accounting for the effect of the preceding updates in
// the batch) for self loops, negative vertex ids, duplicate insertions and
// missing removals. On a validation failure Apply returns a *BatchError
// wrapping the corresponding sentinel and the engine is left unchanged.
// Validation also coalesces self-annihilating update pairs — see
// BatchInfo.Coalesced for the exact semantics.
//
// On success, Apply publishes the batch's epoch and then runs the apply
// hooks (see AddApplyHook) before it returns. Subscribers (see Subscribe)
// are hooks: they receive one CoreChange event per affected vertex per
// update (or per net-changed vertex when the batch was applied by
// recomputation — see BatchInfo.Recomputed).
//
// The surviving updates run one at a time through per-update maintenance,
// the paper's OrderInsert and OrderRemoval. A batch that rewrites a large
// fraction of the graph is instead applied by one wholesale recomputation;
// see WithRebuildThreshold and BatchInfo.Recomputed.
func (e *Engine) Apply(batch Batch) (BatchInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyLocked(batch)
}

// AddEdges applies a pure-insertion batch built from an edge list.
func (e *Engine) AddEdges(edges [][2]int) (BatchInfo, error) {
	batch := make(Batch, len(edges))
	for i, ed := range edges {
		batch[i] = Add(ed[0], ed[1])
	}
	return e.Apply(batch)
}

// RemoveEdges applies a pure-removal batch built from an edge list.
func (e *Engine) RemoveEdges(edges [][2]int) (BatchInfo, error) {
	batch := make(Batch, len(edges))
	for i, ed := range edges {
		batch[i] = Remove(ed[0], ed[1])
	}
	return e.Apply(batch)
}

// applyLocked validates a batch, picks an execution strategy, applies it,
// and feeds the apply hooks. Callers hold the write lock.
func (e *Engine) applyLocked(batch Batch) (BatchInfo, error) {
	skip, coalesced, err := e.validateBatch(batch)
	if err != nil {
		return BatchInfo{Seq: e.seq}, err
	}
	info, err := e.executeGuarded(batch, skip, coalesced)
	// Publish the post-batch epoch before the apply hooks run, so
	// readers never wait behind a WAL fsync and a subscriber holding an
	// event for seq S already reads Seq() >= S. Total.CoreChanged is the
	// complete changed-vertex list on every execution strategy, including
	// a mid-batch error's applied prefix; the panic path published its own
	// full rebuild and ran its repair record inside containPanic.
	if _, panicked := err.(*PanicError); !panicked {
		e.publishEpoch(info.Total.CoreChanged)
	}
	if err == nil && info.Applied > 0 && len(e.hooks) > 0 {
		err = e.runApplyHooks(batch, skip, &info)
	}
	e.changes = nil
	return info, err
}

// executeGuarded runs the apply probe (the engine surface of the fault
// plane, see SetApplyProbe) and then executes the batch with panic
// containment: a panic anywhere in execution — the probe, the maintainer,
// the recompute path — is recovered, the maintained cores and k-order
// are recomputed wholesale from the graph (the one repair that needs no
// assumptions about how far the batch got), and the batch is rejected
// with a *PanicError. Callers hold the write lock.
func (e *Engine) executeGuarded(batch Batch, skip []bool, coalesced int) (info BatchInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			info, err = e.containPanic(r)
		}
	}()
	if e.probe != nil {
		e.probe(len(batch) - coalesced)
	}
	return e.executeBatch(batch, skip, coalesced)
}

// containPanic repairs the engine after a batch execution panic. The
// graph structures are mutated update-by-update, so after an arbitrary
// panic they reflect some applied prefix of the batch; the maintained
// cores/k-order, however, may be mid-flight. Reseeding recomputes them
// from the graph as it stands. An update mutates the graph before its
// maintenance runs, so an update interrupted after its mutation is counted
// here: seq advances by one, and every later batch chains after it. The
// hooks never see the quarantined batch, so their last view is the last
// published epoch: change hooks receive the repair's diff against it (see
// publishFullDiff; panics injected via the apply probe fire pre-mutation,
// so their diff is empty). If the repair itself panics, the engine is
// beyond recovery and the panic propagates.
func (e *Engine) containPanic(r any) (BatchInfo, error) {
	last := e.loadEpoch()
	if e.g.NumEdges() != e.seqEdges {
		e.seq++
		e.seqEdges = e.g.NumEdges()
	}
	e.m.Reseed()
	e.exec.Panics++
	e.publishFullDiff(last)
	return BatchInfo{Seq: e.seq}, &PanicError{Value: r, Stack: debug.Stack()}
}

// publishFullDiff publishes the maintained state as one full epoch and,
// while a change hook is registered, hands the change hooks a record with
// no Updates whose Changes are the state's diff against last, the epoch
// they saw before. Their errors are dropped: the diff reports state that
// has already been installed. The caller holds the write lock.
func (e *Engine) publishFullDiff(last *epoch) {
	e.publishEpochFull()
	if e.changeHooks > 0 {
		if diff := e.diffSince(last); len(diff) > 0 {
			_ = e.runHooks(AppliedBatch{Seq: e.seq, Changes: diff})
		}
	}
}

// executeBatch routes a validated batch to an execution strategy.
// Single-update batches always take the sequential path: recomputation
// can never beat one incremental update, and AddEdge/RemoveEdge rely on
// the per-update BatchInfo.Updates entry that the rebuild path elides.
func (e *Engine) executeBatch(batch Batch, skip []bool, coalesced int) (BatchInfo, error) {
	applied := len(batch) - coalesced
	if applied > 1 {
		adds, removes := 0, 0
		for i, up := range batch {
			if skip != nil && skip[i] {
				continue
			}
			if up.Op == OpAdd {
				adds++
			} else {
				removes++
			}
		}
		if e.shouldRebuild(applied, adds, removes) {
			return e.applyRebuild(batch, skip, coalesced)
		}
	}
	return e.applySequential(batch, skip, coalesced)
}

// applySequential replays the surviving updates one at a time through the
// maintainer — the reference execution strategy the recompute path must
// match observably.
func (e *Engine) applySequential(batch Batch, skip []bool, coalesced int) (BatchInfo, error) {
	info := BatchInfo{Coalesced: coalesced}
	if len(batch) > 0 {
		info.Updates = make([]UpdateInfo, 0, len(batch))
	}
	dedup := len(batch) > 1
	if dedup {
		e.dedupCur++
	}
	record := e.changeHooks > 0
	// The maintainer returns Changed slices that alias its pooled scratch
	// (valid only until the next update), while BatchInfo escapes to the
	// caller indefinitely. Copy-on-return: all per-update CoreChanged
	// slices are carved out of one fresh per-batch buffer, costing O(1)
	// amortized allocations per batch instead of one per update. When the
	// buffer grows, earlier carved slices keep the old backing array —
	// they are never written again, so that is safe.
	var carve []int
	for i, up := range batch {
		if skip != nil && skip[i] {
			info.Updates = append(info.Updates, UpdateInfo{Coalesced: true})
			continue
		}
		var r korder.UpdateResult
		var err error
		if up.Op == OpAdd {
			r, err = e.m.Insert(up.U, up.V)
		} else {
			r, err = e.m.Remove(up.U, up.V)
		}
		if err != nil {
			// Unreachable after validation; reported structurally anyway so
			// callers can tell how far the batch got.
			info.Seq = e.seq
			return info, &BatchError{Index: i, Update: up, Err: err}
		}
		e.seq++
		e.seqEdges = e.g.NumEdges()
		e.exec.Sequential++
		if record {
			e.recordChanges(up.Op, r.Changed)
		}
		start := len(carve)
		carve = append(carve, r.Changed...)
		info.Applied++
		info.Updates = append(info.Updates,
			UpdateInfo{CoreChanged: carve[start:len(carve):len(carve)], Visited: r.Visited})
		info.Total.Visited += r.Visited
		if !dedup {
			info.Total.CoreChanged = append(info.Total.CoreChanged, r.Changed...)
		} else {
			e.dedupTotal(&info, r.Changed)
		}
	}
	info.Seq = e.seq
	return info, nil
}

// recordChanges appends one update's core changes to e.changes, tagged
// with the current seq; op tells the direction every change took (+1 for
// insertions, -1 for removals).
func (e *Engine) recordChanges(op Op, changed []int) {
	delta := 1
	if op == OpRemove {
		delta = -1
	}
	for _, v := range changed {
		c := e.m.Core(v)
		e.changes = append(e.changes, CoreChange{Vertex: v, OldCore: c - delta, NewCore: c, Seq: e.seq})
	}
}

// dedupTotal appends changed vertices to info.Total.CoreChanged, keeping
// each vertex once (at its first change) via the epoch-stamped marks.
func (e *Engine) dedupTotal(info *BatchInfo, changed []int) {
	for _, v := range changed {
		for v >= len(e.dedupEp) {
			e.dedupEp = append(e.dedupEp, 0)
		}
		if e.dedupEp[v] != e.dedupCur {
			e.dedupEp[v] = e.dedupCur
			info.Total.CoreChanged = append(info.Total.CoreChanged, v)
		}
	}
}

// validateBatch checks the whole batch against the current graph plus the
// pending effect of earlier updates in the batch, without mutating anything.
// It also detects self-annihilating pairs: a valid update that exactly
// undoes a pending earlier update of the batch cancels both. The returned
// skip slice (aliasing engine scratch, valid until the next validation)
// marks cancelled positions; it is nil for single-update batches.
func (e *Engine) validateBatch(batch Batch) (skip []bool, coalesced int, err error) {
	// The overlay tracks edges whose presence diverges from the graph
	// because of earlier updates in this batch. Single-update batches (the
	// AddEdge/RemoveEdge fast path) skip it entirely.
	track := len(batch) > 1
	if track {
		e.val.init(len(batch))
		if cap(e.skipBuf) < len(batch) {
			e.skipBuf = make([]bool, len(batch))
		}
		skip = e.skipBuf[:len(batch)]
		clear(skip)
	}
	for i, up := range batch {
		u, v := up.U, up.V
		var cause error
		switch {
		case u < 0 || v < 0:
			cause = ErrVertexRange
		case u == v:
			cause = ErrSelfLoop
		}
		if cause != nil {
			return nil, 0, &BatchError{Index: i, Update: up, Err: cause}
		}
		var slot int
		present, overlaid := false, false
		pair := int32(-1)
		if track {
			slot, present, pair, overlaid = e.val.lookup(u, v)
		}
		if !overlaid {
			present = e.g.HasEdge(u, v)
		}
		switch up.Op {
		case OpAdd:
			if present {
				return nil, 0, &BatchError{Index: i, Update: up, Err: ErrDuplicateEdge}
			}
		case OpRemove:
			if !present {
				return nil, 0, &BatchError{Index: i, Update: up, Err: ErrMissingEdge}
			}
		default:
			return nil, 0, &BatchError{Index: i, Update: up, Err: fmt.Errorf("unknown op %d", up.Op)}
		}
		if !track {
			continue
		}
		if overlaid && pair >= 0 {
			// This valid update exactly undoes pending update `pair`: cancel
			// both. The slot's pending presence returns to the pre-pair
			// state, which for an alternating op sequence equals the value
			// this op would have stored; only the pairing index is cleared,
			// so the next update on this edge validates against the graph
			// state and cannot cancel into the annihilated pair.
			skip[i] = true
			skip[pair] = true
			coalesced += 2
			e.val.store(slot, u, v, up.Op == OpAdd, -1)
			continue
		}
		e.val.store(slot, u, v, up.Op == OpAdd, int32(i))
	}
	return skip, coalesced, nil
}

// overlay is an open-addressed hash table from a packed edge key to the
// edge's pending presence and the batch index of the update that produced
// it, reused across batches so validation costs one (amortized zero)
// allocation per Apply instead of per-update map inserts.
// Keys pack the sorted endpoint pair into one word; vertex ids are dense
// and the graph stores them as int32, so 32 bits per endpoint suffice.
// Key 0 would be the self loop (0,0), which validation rejects first, so 0
// safely marks empty slots.
type overlay struct {
	keys    []uint64
	present []bool
	idx     []int32 // batch index of the pending update; -1 = not cancellable
	shift   uint
}

func edgeKey(u, v int) uint64 {
	return uint64(uint32(min(u, v)))<<32 | uint64(uint32(max(u, v)))
}

// init clears the table and sizes it to at least 4n slots (load <= 1/4).
func (o *overlay) init(n int) {
	size, shift := 16, uint(60)
	for size < 4*n {
		size <<= 1
		shift--
	}
	o.shift = shift
	if cap(o.keys) >= size {
		o.keys = o.keys[:size]
		o.present = o.present[:size]
		o.idx = o.idx[:size]
		clear(o.keys)
	} else {
		o.keys = make([]uint64, size)
		o.present = make([]bool, size)
		o.idx = make([]int32, size)
	}
}

// lookup probes for edge (u, v), returning the slot where it lives or would
// live, its pending presence, the pending update's batch index (-1 when not
// cancellable), and whether the batch touched it before.
func (o *overlay) lookup(u, v int) (slot int, present bool, idx int32, overlaid bool) {
	key := edgeKey(u, v)
	mask := uint64(len(o.keys) - 1)
	i := (key * 0x9e3779b97f4a7c15) >> o.shift
	for o.keys[i] != 0 && o.keys[i] != key {
		i = (i + 1) & mask
	}
	return int(i), o.present[i], o.idx[i], o.keys[i] == key
}

// store records the pending presence of the edge at slot (from lookup).
func (o *overlay) store(slot int, u, v int, present bool, idx int32) {
	o.keys[slot] = edgeKey(u, v)
	o.present[slot] = present
	o.idx[slot] = idx
}
