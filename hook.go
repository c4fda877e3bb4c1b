package kcore

import (
	"errors"
	"slices"
)

// Apply hooks are the engine's commit stream: a persistence layer (see
// internal/persist), a replication publisher (see internal/replicate) and
// every change subscription (see Subscribe) each register a function that
// observes every successfully applied batch — its surviving updates, the
// core changes they caused and the resulting sequence number —
// synchronously, under the engine's write lock, in apply order, after the
// batch's epoch is published. Because hooks run before Apply returns, a
// hook that appends to a write-ahead log with fsync gives callers a hard
// guarantee: when Apply returns nil, the batch is both applied in memory
// and durable on disk.

// AppliedBatch is the record of one committed batch: what the engine hands
// to every ApplyHook, what the write-ahead log stores, and what replication
// ships. Applying Updates to an engine in the state it had at Start
// reproduces the batch bit for bit, because order-based maintenance is
// deterministic.
//
// A record with no Updates is a panic repair (see PanicError): its Changes
// are the repair's diff against the last published state. It is not a
// batch and must not be logged or replicated. Repair records are sent only
// while a Subscribe subscription is active, since Changes is all they carry.
type AppliedBatch struct {
	// Seq is the engine update sequence number after the batch (equals
	// BatchInfo.Seq of the Apply that produced it).
	Seq uint64
	// Updates holds the batch's surviving updates in application order —
	// self-annihilating pairs coalesced away during validation are absent,
	// so len(Updates) is exactly the number of sequence increments the batch
	// consumed. In a record handed to an ApplyHook the slice may alias
	// engine-owned scratch: it is valid only for the duration of the hook
	// call and must be copied (or encoded) by hooks that retain it.
	Updates []Update
	// Changes holds the core changes the batch caused, as Subscribe
	// delivers them: one CoreChange per affected vertex per update in
	// settlement order, or, for a batch applied by recomputation (see
	// BatchInfo.Recomputed) and for a repair record, one per net-changed
	// vertex in ascending vertex order. The engine builds it only while at
	// least one Subscribe subscription is active; otherwise it is nil, so
	// hooks that never read it cost no allocation. It has the same lifetime
	// as Updates. Records read back from a log carry no Changes.
	Changes []CoreChange
}

// Start is the engine sequence number the batch applied onto.
func (b AppliedBatch) Start() uint64 { return b.Seq - uint64(len(b.Updates)) }

// ApplyHook observes one applied batch. A non-nil error aborts nothing —
// the batch is already applied in memory — but is surfaced to the Apply
// caller wrapped in a *HookError, signalling that durability (not the
// update) failed. See AddApplyHook.
type ApplyHook func(AppliedBatch) error

// AddApplyHook appends fn (which must not be nil) to the engine's ordered
// hook list and returns a function that detaches it. Every hook is called
// after every successfully applied batch with at least one surviving
// update, and, while a Subscribe subscription is active, after every panic
// repair that changed a core number (see AppliedBatch), in registration
// order, and every hook runs even when an earlier one failed: the engine's
// in-memory state advanced regardless. AppliedBatch.Changes is nil unless
// a Subscribe subscription is active.
// Hooks run synchronously while the engine's write lock is held, after the
// batch's epoch is published, so invocations are totally ordered and match
// the sequence-number order exactly; a hook must not call back into the
// engine (deadlock) and should be fast — its latency is added to every
// mutation.
//
// When hooks return errors, Apply (and the convenience wrappers built on
// it) return them joined in one *HookError. The batch itself remains
// applied — BatchInfo is valid, earlier hooks and subscriptions saw it — so
// callers must treat a *HookError as "state advanced, durability failed"
// and not retry the batch. Errors returned for a repair record are
// dropped: that Apply already fails with its *PanicError.
//
// remove takes the write lock, so once it returns no Apply is running fn;
// calling it again is a no-op.
func (e *Engine) AddApplyHook(fn ApplyHook) (remove func()) {
	return e.addHook(fn, false)
}

// addHook registers fn; sub marks a Subscribe subscription, whose hook is
// the one reader of AppliedBatch.Changes. The count of live subscriptions
// changes under the write lock together with the hook list, so no batch
// runs a subscription's hook without building its Changes. Subscribe's
// cancel calls remove once, so the count drops once per subscription.
func (e *Engine) addHook(fn ApplyHook, sub bool) (remove func()) {
	h := &fn
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hooks = append(e.hooks, h)
	if sub {
		e.subs++
	}
	return func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.hooks = slices.DeleteFunc(e.hooks, func(x *ApplyHook) bool { return x == h })
		if sub {
			e.subs--
		}
	}
}

// SetApplyProbe registers fn to be called at the start of every batch
// execution — after validation, before any mutation — with the number of
// surviving updates (nil unregisters). It is the engine surface of the
// fault-injection plane (internal/fault): the probe may sleep to model a
// slow apply, or panic to exercise the engine's panic containment. A probe
// panic is caught by the same quarantine machinery as a real execution
// panic (see PanicError), but because it fires before any mutation the
// batch is rejected with the engine state untouched.
//
// The probe runs under the engine write lock, so its latency is added to
// every mutation, including the WAL recovery and follower applies that go
// through Apply.
func (e *Engine) SetApplyProbe(fn func(updates int)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.probe = fn
}

// runApplyHooks calls every registered hook for a successful batch,
// building the surviving-update record. Caller holds the write lock and has
// already checked info.Applied > 0 and that at least one hook is
// registered.
func (e *Engine) runApplyHooks(batch Batch, skip []bool, info *BatchInfo) error {
	updates := batch
	if info.Coalesced > 0 {
		buf := e.hookBuf[:0]
		for i, up := range batch {
			if skip != nil && skip[i] {
				continue
			}
			buf = append(buf, up)
		}
		e.hookBuf = buf
		updates = Batch(buf)
	}
	return e.runHooks(AppliedBatch{Seq: info.Seq, Updates: updates, Changes: e.changes})
}

// runHooks hands rec to every registered hook in order and joins their
// errors into one *HookError. Caller holds the write lock.
func (e *Engine) runHooks(rec AppliedBatch) error {
	var errs []error
	for _, h := range e.hooks {
		if err := (*h)(rec); err != nil {
			errs = append(errs, err)
		}
	}
	if errs == nil {
		return nil
	}
	return &HookError{Err: errors.Join(errs...)}
}
