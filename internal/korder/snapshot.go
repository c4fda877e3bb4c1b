package korder

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"kcore/internal/decomp"
	"kcore/internal/graph"
)

// Snapshot format (little endian):
//
//	magic   [8]byte  "KCOREIDX"
//	version uint32   1
//	n       uint64   vertices
//	m       uint64   edges
//	edges   [2m]uint32
//	core    [n]uint32
//	order   [n]uint32  the maintained k-order, front to back
//
// deg+ and mcd are not stored: both are recomputed in O(m) during load,
// which doubles as an integrity check of the snapshot (see LoadSnapshot).

var snapshotMagic = [8]byte{'K', 'C', 'O', 'R', 'E', 'I', 'D', 'X'}

const snapshotVersion = 1

// WriteSnapshot serializes the maintained index (graph, core numbers, and
// k-order). The snapshot preserves the exact maintained order, so a
// restored maintainer continues with the same per-update behavior instead
// of a freshly generated order.
func (m *Maintainer) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("korder: snapshot write: %w", err)
	}
	n := m.g.NumVertices()
	hdr := []uint64{snapshotVersion, uint64(n), uint64(m.g.NumEdges())}
	// version is logically uint32; written as part of a uint64 triple would
	// change the layout, so write it separately.
	if err := binary.Write(bw, binary.LittleEndian, uint32(snapshotVersion)); err != nil {
		return fmt.Errorf("korder: snapshot write: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, hdr[1:]); err != nil {
		return fmt.Errorf("korder: snapshot write: %w", err)
	}
	edges := make([]uint32, 0, 2*m.g.NumEdges())
	m.g.ForEachEdge(func(u, v int) {
		edges = append(edges, uint32(u), uint32(v))
	})
	if err := binary.Write(bw, binary.LittleEndian, edges); err != nil {
		return fmt.Errorf("korder: snapshot write: %w", err)
	}
	core := make([]uint32, n)
	for v := 0; v < n; v++ {
		core[v] = uint32(m.vs[v].core)
	}
	if err := binary.Write(bw, binary.LittleEndian, core); err != nil {
		return fmt.Errorf("korder: snapshot write: %w", err)
	}
	ord := make([]uint32, 0, n)
	for _, v := range m.Order() {
		ord = append(ord, uint32(v))
	}
	if err := binary.Write(bw, binary.LittleEndian, ord); err != nil {
		return fmt.Errorf("korder: snapshot write: %w", err)
	}
	return bw.Flush()
}

// Reseed rebuilds the maintained index from a fresh static decomposition of
// the current graph, discarding the incrementally maintained order. The
// engine's batch cost model uses it when a batch is so large that replaying
// it through per-edge maintenance would cost more than one O(m + n) peel:
// the graph is mutated wholesale first, then Reseed recomputes cores,
// k-order, deg+, and mcd, and re-allocates the per-level lists and scratch
// exactly as New would — the maintainer afterwards is indistinguishable from
// a freshly constructed one.
func (m *Maintainer) Reseed() {
	dec := decomp.KOrder(m.g, m.opts.Heuristic, m.opts.Seed)
	m.seedCtr = m.opts.Seed
	m.init(dec.Core, dec.DegPlus, decomp.ComputeMCD(m.g, dec.Core), dec.MaxCore, dec.Order)
}

// LoadSnapshot restores a maintainer from a snapshot written by
// WriteSnapshot. The snapshot is fully verified in O(m + n): the stored
// order must be a permutation, level-monotone, a valid peeling order
// (deg+(v) <= core(v) along the order), and every vertex must have at
// least core(v) neighbors at its own level or above — together these
// certify that the stored core numbers are exactly the core numbers of the
// stored graph, without rerunning the decomposition.
func LoadSnapshot(r io.Reader, opts Options) (*Maintainer, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("korder: snapshot read: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("korder: snapshot: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("korder: snapshot read: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("korder: snapshot: unsupported version %d", version)
	}
	var nm [2]uint64
	if err := binary.Read(br, binary.LittleEndian, &nm); err != nil {
		return nil, fmt.Errorf("korder: snapshot read: %w", err)
	}
	n, mEdges := int(nm[0]), int(nm[1])
	if n < 0 || mEdges < 0 || n > 1<<31 || mEdges > 1<<31 {
		return nil, fmt.Errorf("korder: snapshot: implausible sizes n=%d m=%d", n, mEdges)
	}
	edges := make([]uint32, 2*mEdges)
	if err := binary.Read(br, binary.LittleEndian, edges); err != nil {
		return nil, fmt.Errorf("korder: snapshot read: %w", err)
	}
	coreU := make([]uint32, n)
	if err := binary.Read(br, binary.LittleEndian, coreU); err != nil {
		return nil, fmt.Errorf("korder: snapshot read: %w", err)
	}
	ordU := make([]uint32, n)
	if err := binary.Read(br, binary.LittleEndian, ordU); err != nil {
		return nil, fmt.Errorf("korder: snapshot read: %w", err)
	}

	g := graph.New(n)
	for i := 0; i < len(edges); i += 2 {
		u, v := int(edges[i]), int(edges[i+1])
		if u >= n || v >= n {
			return nil, fmt.Errorf("korder: snapshot: edge (%d,%d) out of range", u, v)
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, fmt.Errorf("korder: snapshot: edge (%d,%d): %w", u, v, err)
		}
	}
	core := make([]int, n)
	for v := range coreU {
		core[v] = int(coreU[v])
	}
	ord := make([]int, n)
	for i, u := range ordU {
		ord[i] = int(u)
	}
	return Restore(g, core, ord, opts)
}

// Restore builds a Maintainer directly from a claimed maintained state:
// graph, core numbers, and k-order. It is the verification core of
// LoadSnapshot, exported separately so other serialization formats (the
// engine's durable snapshot in internal/persist, most prominently) can reuse
// it. The claimed state is fully verified in O(m + n): the order must be a
// permutation, level-monotone, a valid peeling order (deg+(v) <= core(v)
// along the order), and every vertex must have at least core(v) neighbors at
// its own level or above — together these certify that core is exactly the
// core-number function of g, so a Restore that returns nil error can never
// install silently-wrong state. g must not be mutated except through the
// returned Maintainer afterwards.
func Restore(g *graph.Undirected, core []int, ord []int, opts Options) (*Maintainer, error) {
	n := g.NumVertices()
	if len(core) != n || len(ord) != n {
		return nil, fmt.Errorf("korder: snapshot: %d cores and %d order entries for %d vertices",
			len(core), len(ord), n)
	}
	seen := make([]bool, n)
	for i, v := range ord {
		if v < 0 || v >= n || seen[v] {
			return nil, fmt.Errorf("korder: snapshot: order is not a permutation at %d", i)
		}
		seen[v] = true
	}

	// Verification (see doc comment). Lower bound: mcd(v) >= core(v).
	for v := 0; v < n; v++ {
		if core[v] < 0 {
			return nil, fmt.Errorf("korder: snapshot: vertex %d has negative core %d", v, core[v])
		}
		cnt := 0
		for _, w := range g.Neighbors(v) {
			if core[w] >= core[v] {
				cnt++
			}
		}
		if cnt < core[v] {
			return nil, fmt.Errorf("korder: snapshot: vertex %d claims core %d with only %d strong neighbors",
				v, core[v], cnt)
		}
	}
	// Upper bound: monotone valid peeling order; record deg+ as we go.
	degPlus := make([]int, n)
	removed := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	prev := 0
	for _, v := range ord {
		if core[v] < prev {
			return nil, fmt.Errorf("korder: snapshot: order not level-monotone at vertex %d", v)
		}
		prev = core[v]
		if deg[v] > core[v] {
			return nil, fmt.Errorf("korder: snapshot: vertex %d has remaining degree %d > core %d",
				v, deg[v], core[v])
		}
		degPlus[v] = deg[v]
		removed[v] = true
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
			}
		}
	}

	m := &Maintainer{g: g, opts: opts, seedCtr: opts.Seed}
	maxCore := 0
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	m.init(core, degPlus, decomp.ComputeMCD(g, core), maxCore, ord)
	return m, nil
}
