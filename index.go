package kcore

import (
	"fmt"
	"slices"

	"kcore/internal/graph"
	"kcore/internal/korder"
)

// IndexState is the complete maintained state of an engine at one update
// sequence number: the edge set, the core numbers, and — the part a fresh
// decomposition cannot reproduce — the maintained k-order, which depends on
// the engine's whole update history. The engine's maintenance is
// deterministic, so this is exactly what a durable snapshot must capture:
// snapshot + write-ahead-log replay on a default engine (see NewEngine)
// reconstructs a default engine bit-identically — same cores, same k-order,
// same Seq. Capture one with Engine.Index; build an engine from one with
// FromIndex, or install one into a live engine with Engine.Restore. It is
// the engine's one capture/restore form: internal/persist's snapshot file
// is its encoding.
type IndexState struct {
	// Seq is the engine update sequence number the state was captured at.
	Seq uint64
	// Vertices is the vertex count (max vertex id + 1); it can exceed the
	// largest endpoint in Edges when trailing vertices are isolated.
	Vertices int
	// Edges lists every edge with U < V.
	Edges [][2]int
	// Cores holds the core number of every vertex, indexed by vertex id.
	Cores []int
	// Order is the maintained k-order, front to back.
	Order []int
}

// Index captures the engine's complete maintained state for a persistence
// layer to serialize. It copies the edge list, core numbers and k-order in
// O(m + n) under the read lock: the adjacency structure and the order are
// mutated in place, so unlike the epoch they cannot be read without it.
// Writers wait only for the copy, never for what the caller does with the
// state. The returned state is the caller's own.
func (e *Engine) Index() *IndexState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &IndexState{
		Seq:      e.seq,
		Vertices: e.g.NumVertices(),
		Edges:    e.g.Edges(),
		Cores:    e.m.Cores(),
		Order:    e.m.Order(),
	}
}

// FromIndex builds an engine from a captured IndexState: a fresh engine
// (see NewEngine) that Restore then fills, so it adopts the state's Seq.
// opts configure the new engine as they do NewEngine's; replaying a log
// onto it reproduces the logged k-order only under the options the log
// was written with (see WithRebuildThreshold).
func FromIndex(st *IndexState, opts ...Option) (*Engine, error) {
	e := NewEngine(opts...)
	if err := e.Restore(st); err != nil {
		return nil, err
	}
	return e, nil
}

// Restore replaces the engine's maintained state with st in place. It
// builds the graph from st.Edges in O(m + n) counting passes with no
// per-edge duplicate probe (graph.FromEdges), then verifies the state in
// O(m + n) (see korder.Restore): a corrupted or inconsistent state yields
// an error, naming the first bad edge when an edge is at fault, and
// leaves the engine untouched. The engine adopts the state's Seq, which
// may be lower than its own, and keeps its options, hooks, subscriptions
// and apply probe; the state records no options, so later updates
// continue its k-order as the captured engine would only when both
// engines have the same options (see WithRebuildThreshold). Restore
// publishes the restored state as one epoch, then hands change hooks (see
// AddChangeHook) a record with no Updates whose Changes turn the old core
// of every vertex whose core differs into its restored one (0 for
// vertices st lacks).
func (e *Engine) Restore(st *IndexState) error {
	if st.Vertices < 0 {
		return fmt.Errorf("kcore: index state: negative vertex count %d", st.Vertices)
	}
	// The error names the first edge that is out of range or that the
	// graph refuses: build the edges before the first out-of-range one,
	// then report that one if the build took them all.
	r := slices.IndexFunc(st.Edges, func(ed [2]int) bool {
		return ed[0] < 0 || ed[0] >= st.Vertices || ed[1] < 0 || ed[1] >= st.Vertices
	})
	if r < 0 {
		r = len(st.Edges)
	}
	g, bad, err := graph.FromEdges(st.Vertices, st.Edges[:r])
	if err != nil {
		ed := st.Edges[bad]
		return fmt.Errorf("kcore: index state: edge (%d,%d): %w", ed[0], ed[1], err)
	}
	if r < len(st.Edges) {
		ed := st.Edges[r]
		return fmt.Errorf("kcore: index state: edge (%d,%d) outside vertex range %d",
			ed[0], ed[1], st.Vertices)
	}
	// korder.Restore takes ownership of the core and order slices; copy so
	// the caller's IndexState stays untouched.
	m, err := korder.Restore(g, slices.Clone(st.Cores), slices.Clone(st.Order), maintainerOptions())
	if err != nil {
		return fmt.Errorf("kcore: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.g, e.m = g, m
	e.seq, e.seqEdges = st.Seq, g.NumEdges()
	e.publishFullDiff()
	return nil
}
