// Package kcore provides dynamic k-core decomposition for evolving
// undirected graphs: it maintains the core number of every vertex under
// edge insertions and removals in time proportional to a small neighborhood
// of the updated edge, instead of recomputing the decomposition from
// scratch.
//
// The engine implements the order-based core-maintenance algorithms
// (OrderInsert / OrderRemoval) of Zhang, Yu, Zhang and Qin, "A Fast
// Order-Based Approach for Core Maintenance" (ICDE 2017). The traversal
// algorithm of Sariyüce et al. (PVLDB 2013 / VLDBJ 2016), its baseline,
// lives in internal/traversal, where the paper reproductions and the
// cross-checks call it.
//
// # Quick start
//
//	e := kcore.NewEngine()
//	e.AddEdge(0, 1)
//	e.AddEdge(1, 2)
//	e.AddEdge(0, 2)          // 0,1,2 now form a triangle
//	fmt.Println(e.Core(0))   // 2
//	e.RemoveEdge(0, 2)
//	fmt.Println(e.Core(0))   // 1
//
// # v1 API overview
//
// The engine is built for read-mostly concurrency with high-rate streaming
// writes, around four pillars:
//
//   - Batched updates: Apply executes a mixed Batch of insertions and
//     removals under one write-lock acquisition, pre-validating the whole
//     batch (a failing batch leaves the engine untouched) and returning
//     per-update and aggregated BatchInfo. AddEdges/RemoveEdges are
//     conveniences; AddEdge/RemoveEdge are one-update batches.
//   - Lock-free reads: after every mutation the writer publishes an
//     immutable epoch snapshot of the maintained read-state (core numbers,
//     counts, degeneracy, sequence number) with one atomic pointer swap, so
//     every query over that state (Core, CoreSeq, Cores, KCore, Degeneracy,
//     Counts, View, ...) answers with zero locking and never contends with
//     writers (see epoch.go). Queries that walk the adjacency structure
//     itself (Neighbors, HasEdge, Community, Edges, ...) share a read lock
//     instead. View captures the current epoch in O(1) for cheap repeated
//     queries.
//   - Change subscriptions: Subscribe delivers per-update CoreChange events
//     (vertex, old core, new core, update sequence number) so streaming
//     consumers stop polling Cores.
//   - Structured errors: mutations wrap the sentinel errors ErrSelfLoop,
//     ErrDuplicateEdge, ErrMissingEdge and ErrVertexRange, so callers
//     branch with errors.Is; batch failures additionally carry the
//     offending position via *BatchError.
//
// For durability, the engine exposes a persistence seam rather than a
// persistence layer: AddApplyHook registers an observer of every applied
// batch under the write lock (a write-ahead log appends and fsyncs there,
// so Apply returning nil means both applied and durable; a replication
// publisher and Subscribe register on the same list), Index captures the
// complete maintained state for snapshotting, and FromIndex and Restore
// install it with full verification. Recovery re-applies logged batches
// through plain Apply. The snapshot + WAL store built on this seam lives
// in internal/persist and is wired into cmd/kcore-serve via -data-dir.
package kcore

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"kcore/internal/decomp"
	"kcore/internal/graph"
	"kcore/internal/korder"
	"kcore/internal/order"
)

type config struct {
	rebuildFloor int
	rebuildFrac  float64
}

// Defaults for the maintain-vs-recompute cost model. The rebuild fraction
// is measured: see the rebuild-crossover rows of BENCH_parallel.json and
// EXPERIMENTS.md.
const (
	defaultRebuildFloor = 256
	defaultRebuildFrac  = 0.15
)

func newConfig(opts []Option) config {
	cfg := config{rebuildFloor: defaultRebuildFloor, rebuildFrac: defaultRebuildFrac}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Option configures an Engine.
type Option func(*config)

// WithWorkers has no effect: Apply runs every batch on the calling
// goroutine, by per-update maintenance or by recomputation (see Apply). It
// is kept for source compatibility.
//
// Deprecated: no effect.
func WithWorkers(n int) Option { return func(*config) {} }

// WithRebuildThreshold tunes the maintain-vs-recompute cost model: a batch
// whose surviving update count is at least floor and at least
// fraction*(m+n) of the post-batch graph is applied by one wholesale
// O(m + n) recomputation instead of per-update maintenance, which is much
// faster but coarsens the result — see
// BatchInfo.Recomputed. floor < 0 disables recomputation entirely.
// Defaults: floor 256, fraction 0.15 (measured; see EXPERIMENTS.md).
//
// Both strategies give the same cores but not the same k-order, so a
// logged update sequence replays to the same k-order only under the
// options it was written with. Snapshots, write-ahead logs and replication
// streams record no options, so the serving stack runs the default engine.
func WithRebuildThreshold(floor int, fraction float64) Option {
	return func(c *config) {
		c.rebuildFloor = floor
		c.rebuildFrac = fraction
	}
}

// UpdateInfo reports the effect of one edge update (or, aggregated, of one
// multi-update operation).
type UpdateInfo struct {
	// CoreChanged lists the vertices whose core number changed (by +1 for
	// insertion, -1 for removal). Aggregated results (BatchInfo.Total,
	// AddVertexWithEdges, RemoveVertex) deduplicate: a vertex whose core
	// changed more than once during the operation appears once, at its
	// first change. When a batch was applied by wholesale recomputation
	// (BatchInfo.Recomputed), the aggregated CoreChanged instead lists the
	// net-changed vertices in ascending order.
	//
	// The slice is owned by the caller: unlike the internal maintainer's
	// pooled buffers, it never aliases engine scratch, so it stays valid
	// indefinitely and across later updates.
	CoreChanged []int
	// Visited is the number of vertices the algorithm examined to find
	// CoreChanged (the paper's |V+| / |V'| search-space metric).
	Visited int
	// Coalesced marks a batch position that was cancelled during
	// pre-validation as half of a self-annihilating pair (see
	// BatchInfo.Coalesced); such entries carry no other information.
	Coalesced bool
}

// Engine is a dynamic k-core decomposition engine. It is safe for
// concurrent use by multiple goroutines: mutations (Apply, AddEdge, ...)
// serialize behind a write lock; queries over the maintained read-state
// (Core, Cores, KCore, View, Counts, ...) read an epoch-published immutable
// snapshot without any locking, and queries over the adjacency structure
// (Neighbors, HasEdge, ...) share a read lock.
type Engine struct {
	mu  sync.RWMutex
	g   *graph.Undirected
	m   *korder.Maintainer
	cfg config
	seq uint64 // updates applied over the engine's lifetime; guarded by mu
	// seqEdges is the graph's edge count as of update seq (guarded by mu).
	// An update mutates the graph before its maintenance runs, so a panic
	// that finds a different count interrupted a mutated update (see
	// containPanic).
	seqEdges int

	// ep is the epoch-published read-state (see epoch.go): written only by
	// publishEpoch under mu, loaded lock-free by the read APIs. Invariant:
	// whenever mu is not held exclusively, ep.Load().seq == seq.
	ep atomic.Pointer[epoch]

	// Batch-apply scratch (guarded by mu): epoch-stamped per-vertex marks
	// for deduplicating aggregated CoreChanged, and the reusable edge
	// overlay used by batch validation. Both avoid per-batch map churn.
	dedupEp  []uint64
	dedupCur uint64
	val      overlay
	skipBuf  []bool

	// exec counts applied updates per execution mode (guarded by mu;
	// published with every epoch, see ExecStats).
	exec ExecStats

	// Apply observers (guarded by mu; see hook.go): hooks see every
	// applied batch in registration order, changeHooks counts the change
	// hooks among them, probe is the fault plane's pre-execution callback,
	// hookBuf is the reused surviving-update buffer, changes the current
	// batch's AppliedBatch.Changes (built only while changeHooks > 0, a
	// fresh slice per batch, dropped once the hooks ran).
	hooks       []*hook
	changeHooks int
	probe       func(updates int)
	hookBuf     []Update
	changes     []CoreChange
}

// NewEngine returns an empty engine. Vertices are dense non-negative
// integers created implicitly by AddEdge/AddVertex.
func NewEngine(opts ...Option) *Engine {
	return fromGraph(&graph.Undirected{}, newConfig(opts))
}

// FromEdges builds an engine from an initial edge list (duplicates and self
// loops are rejected; the error names the first edge that inserting the
// list in order would refuse). Building from a batch is much faster than
// inserting edges one by one: both the graph (counting passes, no
// per-edge duplicate probe) and the initial decomposition take O(m + n).
func FromEdges(edges [][2]int, opts ...Option) (*Engine, error) {
	g, bad, err := graph.FromEdges(0, edges)
	if err != nil {
		return nil, fmt.Errorf("kcore: edge (%d,%d): %w", edges[bad][0], edges[bad][1], err)
	}
	return fromGraph(g, newConfig(opts)), nil
}

// Load builds an engine from a whitespace-separated edge list ("u v" per
// line; '#' and '%' comments allowed; duplicate edges and self loops are
// skipped).
func Load(r io.Reader, opts ...Option) (*Engine, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, fmt.Errorf("kcore: %w", err)
	}
	return fromGraph(g, newConfig(opts)), nil
}

func fromGraph(g *graph.Undirected, cfg config) *Engine {
	e := &Engine{g: g, m: korder.New(g, maintainerOptions()), cfg: cfg, seqEdges: g.NumEdges()}
	e.publishEpoch(nil)
	return e
}

// maintainerOptions is the engine's one maintainer configuration: the
// paper's recommended initial k-order (small deg+ first) on the tag list,
// whose comparisons cost O(1). Neither draws random numbers, so the
// maintained k-order is a function of the starting k-order and the update
// sequence alone. The treap and the other heuristics give identical cores
// and stay in the internal packages for the paper reproductions.
func maintainerOptions() korder.Options {
	return korder.Options{Heuristic: decomp.SmallDegPlusFirst, OrderKind: order.KindTagList}
}

// ExecStats counts, over the engine's lifetime, how many applied updates
// went through each batch execution mode: per-update maintenance or
// wholesale recomputation (see WithRebuildThreshold).
type ExecStats struct {
	// Sequential counts updates applied by per-update maintenance.
	Sequential uint64
	// Replayed is kept for source compatibility.
	//
	// Deprecated: always zero.
	Replayed uint64
	// Live is kept for source compatibility.
	//
	// Deprecated: always zero.
	Live uint64
	// Recomputed counts updates absorbed by a wholesale recomputation.
	Recomputed uint64
	// Panics counts batches quarantined by panic containment: their
	// execution panicked, the engine recovered and recomputed its
	// maintained state wholesale, and the Apply caller got a *PanicError.
	Panics uint64
}

// ExecStats reports cumulative batch execution counters. It reads the
// current epoch without locking; the counters are consistent with the state
// the other read APIs observe at the same moment.
func (e *Engine) ExecStats() ExecStats {
	return e.loadEpoch().exec
}

// Seq reports the number of updates applied to the engine's state: every
// applied update increments it by one, and Restore sets it to the restored
// state's Seq, which may be lower. BatchInfo, CoreChange and View carry the
// sequence number of the state they describe. Lock-free.
func (e *Engine) Seq() uint64 {
	return e.loadEpoch().seq
}

// AddEdge inserts the undirected edge (u, v), creating vertices as needed,
// and updates all core numbers. It returns which vertices changed. The
// error wraps ErrSelfLoop, ErrDuplicateEdge or ErrVertexRange on invalid
// input. It is a one-update batch: many edges at once are cheaper through
// Apply or AddEdges.
func (e *Engine) AddEdge(u, v int) (UpdateInfo, error) {
	info, err := e.Apply(Batch{Add(u, v)})
	if err != nil {
		return UpdateInfo{}, fmt.Errorf("kcore: add edge (%d,%d): %w", u, v, batchCause(err))
	}
	return info.Updates[0], nil
}

// RemoveEdge deletes the undirected edge (u, v) and updates all core
// numbers. It returns which vertices changed. The error wraps
// ErrMissingEdge when the edge is absent.
func (e *Engine) RemoveEdge(u, v int) (UpdateInfo, error) {
	info, err := e.Apply(Batch{Remove(u, v)})
	if err != nil {
		return UpdateInfo{}, fmt.Errorf("kcore: remove edge (%d,%d): %w", u, v, batchCause(err))
	}
	return info.Updates[0], nil
}

// batchCause strips the batch-position wrapper from single-update batches,
// leaving the sentinel cause for the caller's own context message.
func batchCause(err error) error {
	if be, ok := err.(*BatchError); ok {
		return be.Err
	}
	return err
}

// AddVertexWithEdges inserts a fresh vertex connected to the given
// neighbors (the paper's vertex insertion, simulated as a batch of edge
// insertions applied under one write-lock acquisition) and returns its id
// along with the deduplicated union of core changes. On invalid input
// (duplicate or negative neighbors) nothing is applied.
func (e *Engine) AddVertexWithEdges(neighbors []int) (int, UpdateInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.g.NumVertices()
	batch := make(Batch, len(neighbors))
	for i, w := range neighbors {
		batch[i] = Add(v, w)
	}
	info, err := e.applyLocked(batch)
	return v, info.Total, err
}

// RemoveVertex disconnects v by removing all of its incident edges (the
// paper's vertex removal, simulated as a batch of edge removals applied
// under one write-lock acquisition). The vertex id remains valid with core
// number 0. The returned UpdateInfo deduplicates repeated core changes.
func (e *Engine) RemoveVertex(v int) (UpdateInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	nbrs := e.g.AppendNeighbors(nil, v)
	batch := make(Batch, len(nbrs))
	for i, w := range nbrs {
		batch[i] = Remove(v, w)
	}
	info, err := e.applyLocked(batch)
	return info.Total, err
}

// HasEdge reports whether the edge (u, v) is present.
func (e *Engine) HasEdge(u, v int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g.HasEdge(u, v)
}

// NumVertices reports the vertex count (max vertex id + 1). Lock-free.
func (e *Engine) NumVertices() int {
	return e.loadEpoch().vertices
}

// NumEdges reports the edge count. Lock-free.
func (e *Engine) NumEdges() int {
	return e.loadEpoch().edges
}

// Degree reports the degree of v (0 for unknown vertices).
func (e *Engine) Degree(v int) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g.Degree(v)
}

// Neighbors returns the neighbors of v as a fresh slice.
func (e *Engine) Neighbors(v int) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g.AppendNeighbors(nil, v)
}

// Core returns the current core number of v (0 for unknown vertices).
// Lock-free: it answers from the current epoch snapshot.
func (e *Engine) Core(v int) int {
	return e.loadEpoch().core(v)
}

// CoreSeq returns v's current core number together with the update
// sequence number it was read at, from one epoch load. It is the cheap
// single-vertex form of View: point queries that must report a consistent
// (core, seq) pair — network serving, most prominently — avoid View's O(n)
// copy of all core numbers. Lock-free.
func (e *Engine) CoreSeq(v int) (core int, seq uint64) {
	ep := e.loadEpoch()
	return ep.core(v), ep.seq
}

// Counts returns the scalar state summary — vertex count, edge count,
// degeneracy, and the update sequence number they were read at — from one
// epoch load, without locking or touching the core numbers. Like CoreSeq,
// it exists so frequent small reads (serving stats and health endpoints)
// skip View's full snapshot.
func (e *Engine) Counts() (vertices, edges, degeneracy int, seq uint64) {
	ep := e.loadEpoch()
	return ep.vertices, ep.edges, ep.maxCore, ep.seq
}

// Cores returns a copy of all current core numbers, indexed by vertex.
// Lock-free.
func (e *Engine) Cores() []int {
	return e.loadEpoch().coresCopy()
}

// KCore returns the vertices of the current k-core (every vertex whose core
// number is at least k). Lock-free.
func (e *Engine) KCore(k int) []int {
	var out []int
	e.loadEpoch().forEach(func(v, c int) {
		if c >= k {
			out = append(out, v)
		}
	})
	return out
}

// Degeneracy returns the maximum core number, maintained incrementally by
// the writer and read from the current epoch. Lock-free.
func (e *Engine) Degeneracy() int {
	return e.loadEpoch().maxCore
}

// Community answers a core-based community search query (the application
// the paper's introduction motivates): the connected component of the
// k-core containing v, for the largest level <= k at which v participates.
// Returns nil for unknown or isolated-at-level vertices. Cost is
// O((m+n) * degeneracy) per call — it recomputes the core hierarchy; batch
// queries should use CoreComponents.
func (e *Engine) Community(v, k int) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h := decomp.BuildHierarchy(e.g, e.m.Cores())
	return h.CommunityOf(v, k)
}

// CoreComponents returns the connected components of the k-core, each as a
// sorted vertex list.
func (e *Engine) CoreComponents(k int) [][]int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h := decomp.BuildHierarchy(e.g, e.m.Cores())
	var out [][]int
	for _, i := range h.LevelComponents(k) {
		c, err := h.Component(i)
		if err != nil {
			continue
		}
		vs := make([]int, len(c.Vertices))
		copy(vs, c.Vertices)
		out = append(out, vs)
	}
	return out
}

// GreedyColoring colors the graph greedily along the maintained degeneracy
// order, guaranteeing at most Degeneracy()+1 colors (the classic k-core
// application to coloring). Returns per-vertex colors and the number of
// colors used.
func (e *Engine) GreedyColoring() ([]int, int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return decomp.GreedyColorByOrder(e.g, e.m.Order())
}

// Edges returns all current edges with u < v.
func (e *Engine) Edges() [][2]int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g.Edges()
}

// Save writes the current graph as an edge list readable by Load.
func (e *Engine) Save(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return graph.WriteEdgeList(w, e.g)
}

// Validate checks the maintained state against a from-scratch
// recomputation. It is intended for tests and debugging; cost is
// O((m+n) log n).
func (e *Engine) Validate() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.validateEpochLocked(); err != nil {
		return err
	}
	return e.m.CheckInvariants()
}

// validateEpochLocked checks the published epoch against the authoritative
// maintained state: with the read lock held no publication can be in
// flight, so the epoch must agree exactly with the maintainer and graph.
// It is the tripwire for incremental-publication bugs (a missed changed
// vertex would surface here long before a serving differential catches it).
func (e *Engine) validateEpochLocked() error {
	ep := e.loadEpoch()
	if ep == nil {
		return fmt.Errorf("kcore: no epoch published")
	}
	if ep.seq != e.seq {
		return fmt.Errorf("kcore: epoch seq %d != engine seq %d", ep.seq, e.seq)
	}
	n := e.g.NumVertices()
	if ep.vertices != n || len(ep.chunks) != (n+chunkMask)>>chunkBits {
		return fmt.Errorf("kcore: epoch has %d vertices in %d chunks, graph has %d",
			ep.vertices, len(ep.chunks), n)
	}
	for i, c := range ep.chunks {
		if c == nil {
			return fmt.Errorf("kcore: epoch chunk %d of %d is nil", i, len(ep.chunks))
		}
	}
	if ep.edges != e.g.NumEdges() {
		return fmt.Errorf("kcore: epoch has %d edges, graph has %d", ep.edges, e.g.NumEdges())
	}
	maxc := 0
	for v := 0; v < n; v++ {
		c := e.m.Core(v)
		if ep.core(v) != c {
			return fmt.Errorf("kcore: epoch core[%d] = %d, maintainer has %d",
				v, ep.core(v), c)
		}
		if c > maxc {
			maxc = c
		}
	}
	if ep.maxCore != maxc {
		return fmt.Errorf("kcore: epoch degeneracy %d, maintainer has %d", ep.maxCore, maxc)
	}
	return nil
}

// Decompose computes core numbers for a static edge list without building
// an engine: the graph build and the decomposition each take O(m + n). It
// rejects duplicates and self loops as FromEdges does.
func Decompose(edges [][2]int) ([]int, error) {
	g, bad, err := graph.FromEdges(0, edges)
	if err != nil {
		return nil, fmt.Errorf("kcore: edge (%d,%d): %w", edges[bad][0], edges[bad][1], err)
	}
	return decomp.Cores(g), nil
}
