package kcore

import (
	"fmt"

	"kcore/internal/graph"
)

// Sentinel errors returned (wrapped) by engine mutations. Callers branch on
// them with errors.Is:
//
//	if _, err := e.AddEdge(u, v); errors.Is(err, kcore.ErrDuplicateEdge) {
//		// edge was already present
//	}
var (
	// ErrSelfLoop is returned when an update names an edge (v, v).
	ErrSelfLoop = graph.ErrSelfLoop
	// ErrDuplicateEdge is returned when an inserted edge is already present
	// (in the graph, or earlier in the same batch).
	ErrDuplicateEdge = graph.ErrDuplicateEdge
	// ErrMissingEdge is returned when a removed edge is not present.
	ErrMissingEdge = graph.ErrMissingEdge
	// ErrVertexRange is returned for negative vertex identifiers.
	ErrVertexRange = graph.ErrVertexRange
)

// BatchError reports which update of a batch failed and why. Apply returns
// it for every validation failure; it wraps one of the sentinel errors, so
// both errors.As (for the position) and errors.Is (for the cause) work:
//
//	var be *kcore.BatchError
//	if errors.As(err, &be) {
//		log.Printf("update %d (%v) rejected: %v", be.Index, be.Update, be.Err)
//	}
type BatchError struct {
	// Index is the position of the offending update within the batch.
	Index int
	// Update is the offending update.
	Update Update
	// Err is the underlying cause (one of the sentinel errors).
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("kcore: batch update %d (%s %d-%d): %v",
		e.Index, e.Update.Op, e.Update.U, e.Update.V, e.Err)
}

// Unwrap exposes the underlying sentinel to errors.Is / errors.As.
func (e *BatchError) Unwrap() error { return e.Err }

// HookError reports that a batch was applied in memory but one or more
// apply hooks — typically the write-ahead log of a persistence layer (see
// AddApplyHook) — failed afterwards. The distinction matters: on a
// *HookError the engine state HAS advanced (BatchInfo is valid, every hook
// and subscription saw the batch), only durability failed, so callers must
// not re-submit the batch — a retry would double-apply it. Branch with errors.As:
//
//	var he *kcore.HookError
//	if errors.As(err, &he) {
//		log.Printf("batch applied but not persisted: %v", he.Err)
//	}
type HookError struct {
	// Err is the failing hooks' errors, joined in registration order.
	Err error
}

func (e *HookError) Error() string { return "kcore: apply hook: " + e.Err.Error() }

// Unwrap exposes the hooks' errors to errors.Is / errors.As.
func (e *HookError) Unwrap() error { return e.Err }

// PanicError reports that a batch was quarantined: its execution panicked,
// the engine recovered, and the maintained cores and k-order were
// recomputed wholesale from the graph (see ExecStats.Panics). The engine
// stays usable; the batch is rejected.
//
// A quarantined batch may have applied a prefix of its updates before the
// panic (Seq tells how far the sequence advanced). The prefix includes the
// interrupted update when it had already mutated the graph: seq counts it,
// so no graph change goes without a sequence number. Those updates were NOT
// handed to the apply hooks. Instead, when the repaired cores differ from
// the last published state, the change hooks (see AddChangeHook) receive a
// repair record (see AppliedBatch) at the repaired seq whose Changes carry
// that diff, so subscribers stay in step. No record
// carries the quarantined batch's Updates, so a persistence layer will
// refuse the next append as a sequence gap until it heals by snapshot, and
// a replication follower crossing the gap re-bootstraps — both by design:
// the durability and replication planes never paper over a hole. Panics injected through the fault plane's apply probe fire before
// any mutation, so they quarantine cleanly with no prefix and no repair
// record.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("kcore: batch quarantined after panic: %v", e.Value)
}
