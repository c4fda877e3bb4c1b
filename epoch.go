package kcore

// Epoch-published read state: instead of guarding queries with the engine's
// RWMutex, the writer publishes an immutable snapshot of everything the read
// APIs answer from — core numbers, graph counts, degeneracy, sequence number,
// execution counters — after every mutation, with a single atomic pointer
// swap. Readers load the current epoch and answer with zero locking, so
// queries and SSE fan-out never contend with Apply at all.
//
// Publication must not make the write path O(n) per update, so an epoch
// keeps its core numbers in fixed chunks of chunkSize vertices, shared
// copy-on-write between epochs (path copying, as in Driscoll, Sarnak,
// Sleator & Tarjan, "Making Data Structures Persistent", JCSS 1989). A
// publish copies the previous epoch's chunk table — one pointer per
// chunkSize vertices — and clones only the chunks that hold a changed or
// newly created vertex; every other chunk stays shared. The writer pays
// O(n/chunkSize + changed chunks × chunkSize) per publish, and a point read
// is two loads.
//
// Safety argument (see also PARALLEL.md):
//
//   - The writer fully constructs an epoch — chunk table, cloned chunks,
//     and scalars — before the atomic Store. The Store is a release
//     operation and every reader's Load is an acquire, so a reader that
//     observes the pointer observes every field behind it (Go memory model:
//     the atomic store orders all writes that happened before it ahead of
//     any read that follows the corresponding load).
//   - An epoch is never mutated after publication: a chunk is written only
//     by the publish that cloned it, before the Store, and is read-only once
//     any published epoch references it. Readers therefore cannot observe
//     torn or shifting state, and a View (which wraps one epoch) stays valid
//     indefinitely.
//   - All publications happen while holding the engine write lock, so the
//     stores are totally ordered and, between Restores, epoch sequence
//     numbers are monotonic: a reader that loads seq S and loads again
//     later sees seq' >= S. Restore may install an older state, whose
//     epoch carries a lower seq.

// chunkBits sets the chunk size: 128 int32 core numbers, 512 bytes.
const (
	chunkBits = 7
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk holds the core numbers of chunkSize consecutive vertices. Core
// numbers are stored as int32 — a core number is bounded by the maximum
// degree, and the graph package already stores vertex ids as int32.
type chunk [chunkSize]int32

// epoch is the immutable read-state snapshot.
type epoch struct {
	// chunks[v>>chunkBits][v&chunkMask] is vertex v's core number: one
	// non-nil chunk per chunkSize vertices, shared with the epochs that
	// hold the same pointer. Entries past vertices in the last chunk may
	// hold stale cores (after a shrinking Restore) and are never read.
	chunks   []*chunk
	vertices int
	edges    int
	maxCore  int
	seq      uint64
	exec     ExecStats
}

// core answers a point lookup (0 for unknown vertices).
func (ep *epoch) core(v int) int {
	if v < 0 || v >= ep.vertices {
		return 0
	}
	return int(ep.chunks[v>>chunkBits][v&chunkMask])
}

// forEach visits every vertex with its core number.
func (ep *epoch) forEach(fn func(v, c int)) {
	for v := 0; v < ep.vertices; v++ {
		fn(v, int(ep.chunks[v>>chunkBits][v&chunkMask]))
	}
}

// coresCopy converts the epoch's core numbers to a fresh []int.
func (ep *epoch) coresCopy() []int {
	out := make([]int, ep.vertices)
	ep.forEach(func(v, c int) { out[v] = c })
	return out
}

// publishEpoch derives the next epoch from the published one and installs
// it; it is the engine's only publication. changed lists every
// pre-existing vertex whose core number changed since the last publication
// (BatchInfo.Total.CoreChanged is exactly that list, duplicate-free, on
// both execution strategies); vertices created since the last epoch are
// always re-read from the maintainer, so they need not appear in changed,
// and ids at or past the vertex count are ignored. Construction publishes
// onto the empty epoch, so every vertex is new. The caller holds the write
// lock.
func (e *Engine) publishEpoch(changed []int) {
	old := e.ep.Load()
	if old == nil {
		old = &epoch{}
	}
	n := e.g.NumVertices()
	chunks := old.chunks
	if len(changed) > 0 || n != old.vertices {
		chunks = make([]*chunk, (n+chunkMask)>>chunkBits)
		copy(chunks, old.chunks)
		set := func(v int) {
			i := v >> chunkBits
			c := chunks[i]
			if c == nil || i < len(old.chunks) && c == old.chunks[i] {
				// First write to a chunk shared with the old epoch (or
				// past its table): clone it, stale tail entries included.
				fresh := new(chunk)
				if c != nil {
					*fresh = *c
				}
				chunks[i], c = fresh, fresh
			}
			c[v&chunkMask] = int32(e.m.Core(v))
		}
		for _, v := range changed {
			if v >= 0 && v < n {
				set(v)
			}
		}
		for v := old.vertices; v < n; v++ {
			set(v)
		}
	}
	e.ep.Store(&epoch{
		chunks:   chunks,
		vertices: n,
		edges:    e.g.NumEdges(),
		maxCore:  e.m.MaxCore(),
		seq:      e.seq,
		exec:     e.exec,
	})
}

// loadEpoch returns the current epoch for a lock-free read.
func (e *Engine) loadEpoch() *epoch { return e.ep.Load() }
