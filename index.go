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
// the engine's whole update history. Together with the seed that drives
// deterministic replay, it is exactly what a durable snapshot must capture
// so that snapshot + write-ahead-log replay reconstructs the engine
// bit-identically: same cores, same k-order, same Seq. Capture one with
// Engine.Index; build an engine from one with FromIndex, or install one
// into a live engine with Engine.Restore. It is the engine's one
// capture/restore form: internal/persist's snapshot file is its encoding.
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
	// Seed is the engine seed (WithSeed); it must survive a restore for
	// subsequent updates, including wholesale recomputations, to replay
	// deterministically.
	Seed uint64
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
		Seed:     e.cfg.seed,
	}
}

// FromIndex builds an engine from a captured IndexState: a fresh engine
// (see NewEngine) that Restore then fills. The engine adopts the state's
// Seq and Seed, which replay determinism depends on; other options
// (WithRebuildThreshold, ...) may be supplied as opts.
func FromIndex(st *IndexState, opts ...Option) (*Engine, error) {
	e := NewEngine(opts...)
	if err := e.Restore(st); err != nil {
		return nil, err
	}
	return e, nil
}

// Restore replaces the engine's maintained state with st in place. The
// state is fully verified in O(m + n) first (see korder.Restore): a
// corrupted or inconsistent state yields an error and leaves the engine
// untouched. The engine adopts the state's Seq, which may be lower than
// its own, and Seed, and keeps its options, hooks, subscriptions and apply
// probe. Restore publishes the restored state as one epoch, then hands
// change hooks (see AddChangeHook) a record with no Updates whose Changes
// turn every vertex's old core into its restored one (0 for vertices st
// lacks).
func (e *Engine) Restore(st *IndexState) error {
	if st.Vertices < 0 {
		return fmt.Errorf("kcore: index state: negative vertex count %d", st.Vertices)
	}
	g := graph.New(st.Vertices)
	for _, ed := range st.Edges {
		if ed[0] < 0 || ed[0] >= st.Vertices || ed[1] < 0 || ed[1] >= st.Vertices {
			return fmt.Errorf("kcore: index state: edge (%d,%d) outside vertex range %d",
				ed[0], ed[1], st.Vertices)
		}
		if err := g.AddEdge(ed[0], ed[1]); err != nil {
			return fmt.Errorf("kcore: index state: edge (%d,%d): %w", ed[0], ed[1], err)
		}
	}
	// korder.Restore takes ownership of the core and order slices; copy so
	// the caller's IndexState stays untouched.
	m, err := korder.Restore(g, slices.Clone(st.Cores), slices.Clone(st.Order), maintainerOptions(st.Seed))
	if err != nil {
		return fmt.Errorf("kcore: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.g, e.m, e.cfg.seed = g, m, st.Seed
	e.seq, e.seqEdges = st.Seq, g.NumEdges()
	e.publishFullDiff()
	return nil
}
