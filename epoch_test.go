package kcore

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

// churnGen builds always-valid mixed batches by tracking edge presence
// locally (toggling matches the overlay's coalescing semantics: an add
// later undone by a remove in the same batch is valid and elided).
type churnGen struct {
	rng     *rand.Rand
	present map[[2]int]bool
	n       int
}

func newChurnGen(seed uint64, n int) *churnGen {
	return &churnGen{rng: rand.New(rand.NewPCG(seed, 1)), present: map[[2]int]bool{}, n: n}
}

func (g *churnGen) batch(size int) Batch {
	batch := make(Batch, 0, size)
	for len(batch) < size {
		u, v := g.rng.IntN(g.n), g.rng.IntN(g.n)
		if u == v {
			continue
		}
		key := [2]int{min(u, v), max(u, v)}
		if g.present[key] {
			batch = append(batch, Remove(u, v))
			g.present[key] = false
		} else {
			batch = append(batch, Add(u, v))
			g.present[key] = true
		}
	}
	return batch
}

// TestEpochMatchesLocked is the quiesced differential for the epoch read
// path: after every batch — across the sequential and wholesale-recompute
// execution strategies and the default options, with removals,
// coalesced pairs, and vertex operations mixed in — every lock-free read
// API must agree exactly with the authoritative maintained state that the
// old RWMutex read path answered from. Engine.Validate holds the lock and
// compares the published epoch field-by-field against the maintainer, so
// one incremental-publication bug (a missed changed vertex, a stale
// degeneracy) fails here deterministically.
func TestEpochMatchesLocked(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"sequential", []Option{WithRebuildThreshold(-1, 0)}},
		{"default", nil},
		{"rebuild", []Option{WithRebuildThreshold(1, 0.0001)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.opts...)
			gen := newChurnGen(11, 300)
			for step := 0; step < 40; step++ {
				size := 1 + gen.rng.IntN(200)
				if _, err := e.Apply(gen.batch(size)); err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				if err := e.Validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			// The epoch-served reads must agree with a from-scratch
			// decomposition of the same edge set.
			want, err := Decompose(e.Edges())
			if err != nil {
				t.Fatal(err)
			}
			got := e.Cores()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("core[%d] = %d, decomposition says %d", v, got[v], want[v])
				}
			}
			maxc := 0
			for _, c := range want {
				maxc = max(maxc, c)
			}
			if d := e.Degeneracy(); d != maxc {
				t.Fatalf("Degeneracy() = %d, want %d", d, maxc)
			}
			vtx, edg, deg, seq := e.Counts()
			if vtx != e.NumVertices() || edg != e.NumEdges() || deg != maxc || seq != e.Seq() {
				t.Fatalf("Counts() = (%d,%d,%d,%d) inconsistent with point reads", vtx, edg, deg, seq)
			}
		})
	}
}

// TestEpochVertexOps covers the epoch's incremental growth paths: vertex
// insertion (fresh ids beyond the previous epoch's range) and removal.
func TestEpochVertexOps(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n := e.NumVertices()
		nbrs := []int{i % n, (i + 1) % n}
		if nbrs[0] == nbrs[1] {
			nbrs = nbrs[:1]
		}
		if _, _, err := e.AddVertexWithEdges(nbrs); err != nil {
			t.Fatal(err)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("after vertex add %d: %v", i, err)
		}
	}
	for v := 0; v < 10; v++ {
		if _, err := e.RemoveVertex(v); err != nil {
			t.Fatal(err)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("after vertex remove %d: %v", v, err)
		}
	}
}

// TestEpochAfterPanicRepair pins the republication after panic
// containment: no changed list describes the reseeded state, so the repair
// publishes every vertex whose core differs from the last published epoch
// (see publishFullDiff), and that epoch must match the maintainer.
func TestEpochAfterPanicRepair(t *testing.T) {
	e := NewEngine()
	gen := newChurnGen(13, 60)
	if _, err := e.Apply(gen.batch(120)); err != nil {
		t.Fatal(err)
	}
	boom := true
	e.SetApplyProbe(func(int) {
		if boom {
			boom = false
			panic("injected")
		}
	})
	var pe *PanicError
	if _, err := e.Apply(gen.batch(10)); !errors.As(err, &pe) {
		t.Fatalf("Apply after injected panic: %v", err)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("after panic repair: %v", err)
	}
	if _, err := e.Apply(gen.batch(10)); err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("after post-repair batch: %v", err)
	}
}

// TestEpochRoundTrip checks that the restore path publishes an initial
// epoch: an engine rebuilt via FromIndex must answer reads immediately and
// pass the epoch tripwire.
func TestEpochRoundTrip(t *testing.T) {
	e := NewEngine()
	gen := newChurnGen(17, 80)
	if _, err := e.Apply(gen.batch(200)); err != nil {
		t.Fatal(err)
	}
	re, err := FromIndex(e.Index())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatalf("FromIndex engine: %v", err)
	}
	if re.Seq() != e.Seq() || re.Degeneracy() != e.Degeneracy() {
		t.Fatalf("FromIndex: seq/degeneracy mismatch")
	}
}

// TestEpochReadsLockFree pins the contract the refactor exists for: every
// read API over the maintained state answers while the engine write lock
// is held by someone else. Under the old RWMutex read path each of these
// calls would deadlock this test.
func TestEpochReadsLockFree(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = e.Core(0)
		_, _ = e.CoreSeq(1)
		_ = e.Cores()
		_ = e.KCore(2)
		_ = e.Degeneracy()
		_, _, _, _ = e.Counts()
		_ = e.Seq()
		_ = e.NumVertices()
		_ = e.NumEdges()
		_ = e.ExecStats()
		v := e.View()
		_ = v.Cores()
		_ = v.KCore(1)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read APIs blocked on the engine mutex")
	}
}

// groundTruth is the per-sequence-number reference state for the
// linearizability differential, recorded from a quiesced reference engine.
type groundTruth struct {
	cores    []int
	vertices int
	edges    int
	maxCore  int
}

// TestReadLinearizabilityDifferential is the concurrent differential for
// epoch publication: reader goroutines hammer the lock-free read APIs
// while the writer streams batches, and every observation is checked
// against the state a reference engine (applying the identical batches,
// quiesced) reports for the same sequence number. Readers additionally
// assert per-goroutine monotonicity: the sequence number a read reports
// never goes backwards. Run under -race at GOMAXPROCS=4 in CI.
func TestReadLinearizabilityDifferential(t *testing.T) {
	const (
		vertices = 200
		batches  = 120
		readers  = 4
	)
	e := NewEngine()
	ref := NewEngine()

	// Ground truth per observable seq, recorded by the writer before the
	// batch is applied to the engine under test: readers can then never
	// observe a seq the map does not yet hold.
	var gtMu sync.Mutex
	gt := map[uint64]*groundTruth{}
	record := func(seq uint64) {
		g := &groundTruth{cores: ref.Cores()}
		g.vertices, g.edges, g.maxCore, _ = ref.Counts()
		gtMu.Lock()
		gt[seq] = g
		gtMu.Unlock()
	}
	lookup := func(seq uint64) *groundTruth {
		gtMu.Lock()
		defer gtMu.Unlock()
		return gt[seq]
	}
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
	record(0)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		gen := newChurnGen(29, vertices)
		for step := 0; step < batches; step++ {
			batch := gen.batch(1 + gen.rng.IntN(80))
			refInfo, err := ref.Apply(append(Batch(nil), batch...))
			if err != nil {
				t.Errorf("ref Apply: %v", err)
				return
			}
			record(refInfo.Seq)
			info, err := e.Apply(batch)
			if err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
			if info.Seq != refInfo.Seq {
				t.Errorf("seq diverged: %d vs ref %d", info.Seq, refInfo.Seq)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 3))
			var lastSeq uint64
			check := func(seq uint64, what string, ok func(g *groundTruth) bool) {
				if seq < lastSeq {
					t.Errorf("reader %d: %s seq went backwards: %d after %d", r, what, seq, lastSeq)
				}
				lastSeq = seq
				g := lookup(seq)
				if g == nil {
					t.Errorf("reader %d: observed unknown seq %d via %s", r, seq, what)
					return
				}
				if !ok(g) {
					t.Errorf("reader %d: %s inconsistent with ground truth at seq %d", r, what, seq)
				}
			}
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one final pass after the writer exits
				default:
				}
				x := rng.IntN(vertices)
				c, seq := e.CoreSeq(x)
				check(seq, "CoreSeq", func(g *groundTruth) bool {
					want := 0
					if x < len(g.cores) {
						want = g.cores[x]
					}
					return c == want
				})
				vtx, edg, deg, seq := e.Counts()
				check(seq, "Counts", func(g *groundTruth) bool {
					return vtx == g.vertices && edg == g.edges && deg == g.maxCore
				})
				v := e.View()
				cores := v.Cores()
				check(v.Seq(), "View", func(g *groundTruth) bool {
					if len(cores) != len(g.cores) || v.NumVertices() != g.vertices ||
						v.NumEdges() != g.edges || v.Degeneracy() != g.maxCore {
						return false
					}
					for i := range cores {
						if cores[i] != g.cores[i] {
							return false
						}
					}
					return true
				})
			}
		}(r)
	}
	wg.Wait()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Final quiesced cross-check: test engine ≡ reference engine.
	got, want := e.Cores(), ref.Cores()
	if len(got) != len(want) {
		t.Fatalf("cores len %d, ref %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core[%d] = %d, ref %d", v, got[v], want[v])
		}
	}
}

// TestEpochSharesUntouchedChunks pins the copy-on-write chunk table: an
// update that changes or creates one vertex clones exactly that vertex's
// chunk and shares every other chunk with the previous epoch, which, like
// a View held across the update, still reads the old cores.
func TestEpochSharesUntouchedChunks(t *testing.T) {
	const n = 1000
	var edges [][2]int
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]int{v, v + 1}) // a path: every core is 1
	}
	edges = append(edges, [2]int{600, 602}) // triangle 600-601-602: cores 2
	e, err := FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		u, v          int
		vertex        int // the one vertex the update changes or creates
		before, after int
		changed       []int
	}{
		{"change", 603, 601, 603, 1, 2, []int{603}}, // 603 gains a second 2-core neighbor
		{"create", 999, n, n, 0, 1, []int{n}},
	} {
		old, view := e.loadEpoch(), e.View()
		info, err := e.AddEdge(tc.u, tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(info.CoreChanged, tc.changed) {
			t.Fatalf("%s: CoreChanged = %v, want %v", tc.name, info.CoreChanged, tc.changed)
		}
		ep := e.loadEpoch()
		if len(ep.chunks) != len(old.chunks) {
			t.Fatalf("%s: %d chunks, previous epoch had %d", tc.name, len(ep.chunks), len(old.chunks))
		}
		for i, c := range ep.chunks {
			if shared := c == old.chunks[i]; shared == (i == tc.vertex>>chunkBits) {
				t.Fatalf("%s: chunk %d shared = %v; only chunk %d may be cloned",
					tc.name, i, shared, tc.vertex>>chunkBits)
			}
		}
		if got := old.core(tc.vertex); got != tc.before {
			t.Fatalf("%s: previous epoch reads core[%d] = %d, want %d", tc.name, tc.vertex, got, tc.before)
		}
		if got := view.Core(tc.vertex); got != tc.before {
			t.Fatalf("%s: held View reads core[%d] = %d, want %d", tc.name, tc.vertex, got, tc.before)
		}
		if got := e.Core(tc.vertex); got != tc.after {
			t.Fatalf("%s: core[%d] = %d, want %d", tc.name, tc.vertex, got, tc.after)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestEpochShrinkThenGrow: a Restore to fewer vertices whose cores equal
// the old ones clones nothing, so the shared chunk 0 still holds the
// dropped vertices' cores past the new vertex count. Growing again must
// overwrite them: the recreated vertices read 0, not the stale cores.
func TestEpochShrinkThenGrow(t *testing.T) {
	triangle := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	k4 := [][2]int{{3, 4}, {3, 5}, {3, 6}, {4, 5}, {4, 6}, {5, 6}} // cores 3
	e, err := FromEdges(append(slices.Clone(triangle), k4...))
	if err != nil {
		t.Fatal(err)
	}
	small, err := FromEdges(triangle)
	if err != nil {
		t.Fatal(err)
	}
	before, view := e.loadEpoch(), e.View()
	if err := e.Restore(small.Index()); err != nil {
		t.Fatal(err)
	}
	if ep := e.loadEpoch(); len(ep.chunks) != 1 || ep.chunks[0] != before.chunks[0] {
		t.Fatalf("Restore to equal cores cloned chunk 0 (%d chunks)", len(ep.chunks))
	}
	if _, err := e.AddEdge(2, 700); err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	cores := e.Cores()
	for v := 3; v < 700; v++ {
		if e.Core(v) != 0 || cores[v] != 0 {
			t.Fatalf("core[%d] = %d (Cores: %d) after regrowth, want 0", v, e.Core(v), cores[v])
		}
	}
	if e.Core(2) != 2 || e.Core(700) != 1 {
		t.Fatalf("core[2] = %d, core[700] = %d, want 2 and 1", e.Core(2), e.Core(700))
	}
	if got := view.Cores(); !slices.Equal(got, []int{2, 2, 2, 3, 3, 3, 3}) {
		t.Fatalf("View held across Restore reads %v", got)
	}
}

// FuzzEpochPublish drives the epoch's copy-on-write publication through
// every path that publishes: batches over vertex ids below 600 (five
// chunks), vertex removal and insertion, and Restore to any state the
// engine held before (shrinking and regrowing the chunk table). After
// each step the published epoch must match the maintainer (Validate), and
// every View taken earlier must still read the cores captured with it.
// seed drives the vertex choice; each ops byte is one step: op%5 picks
// the operation, op>>3 a batch size, a neighbor count or a state index.
func FuzzEpochPublish(f *testing.F) {
	f.Add(uint64(1), []byte{0xf8, 0x09, 0x0c, 0x0a, 0x04, 0x08, 0xfb})
	f.Add(uint64(2), []byte{0x00, 0x10, 0x08, 0x0c, 0x00, 0x02, 0x03})
	f.Add(uint64(3), []byte{0x80, 0x03, 0x83, 0x01, 0x0c, 0x00, 0x14, 0x08})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		const n = 600
		rng := rand.New(rand.NewPCG(seed, 5))
		e := NewEngine()
		type held struct {
			v     *View
			cores []int
		}
		var views []held
		states := []*IndexState{e.Index()}
		for step, op := range ops {
			if step == 48 {
				break
			}
			arg := int(op >> 3)
			switch op % 5 {
			case 0, 1:
				batch, toggled := Batch{}, map[[2]int]bool{}
				for range 1 + arg*8 {
					u, v := rng.IntN(n), rng.IntN(n)
					if u == v {
						continue
					}
					key := [2]int{min(u, v), max(u, v)}
					present, ok := toggled[key]
					if !ok {
						present = e.HasEdge(u, v)
					}
					if present {
						batch = append(batch, Remove(u, v))
					} else {
						batch = append(batch, Add(u, v))
					}
					toggled[key] = !present
				}
				if _, err := e.Apply(batch); err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
			case 2:
				if nv := e.NumVertices(); nv > 0 {
					if _, err := e.RemoveVertex(rng.IntN(nv)); err != nil {
						t.Fatalf("step %d: RemoveVertex: %v", step, err)
					}
				}
			case 3:
				nv := e.NumVertices()
				nbrs := rng.Perm(nv)[:min(nv, arg%4+1)]
				if _, _, err := e.AddVertexWithEdges(nbrs); err != nil {
					t.Fatalf("step %d: AddVertexWithEdges: %v", step, err)
				}
			case 4:
				if err := e.Restore(states[arg%len(states)]); err != nil {
					t.Fatalf("step %d: Restore: %v", step, err)
				}
			}
			if err := e.Validate(); err != nil {
				t.Fatalf("step %d (op %#x): %v", step, op, err)
			}
			st := e.Index()
			states = append(states, st)
			views = append(views, held{e.View(), st.Cores})
			for i, h := range views {
				if got := h.v.Cores(); !slices.Equal(got, h.cores) {
					t.Fatalf("step %d: View %d (seq %d) reads %v, captured %v", step, i, h.v.Seq(), got, h.cores)
				}
			}
		}
	})
}
