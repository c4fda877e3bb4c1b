package kcore

import (
	"errors"
	"math/rand/v2"
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
		{"sequential", []Option{WithSeed(3), WithRebuildThreshold(-1, 0)}},
		{"default", []Option{WithSeed(3)}},
		{"rebuild", []Option{WithSeed(3), WithRebuildThreshold(1, 0.0001)}},
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
	e := NewEngine(WithSeed(9))
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

// TestEpochAfterPanicRepair pins the full republication after panic
// containment: the repair's diff is relative to panic-time cores, not the
// last epoch, so the epoch must be rebuilt wholesale.
func TestEpochAfterPanicRepair(t *testing.T) {
	e := NewEngine(WithSeed(7))
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
	e := NewEngine(WithSeed(5))
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
	e := NewEngine(WithSeed(2))
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
	e := NewEngine(WithSeed(21))
	ref := NewEngine(WithSeed(21))

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
