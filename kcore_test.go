package kcore

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	info, err := e.AddEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.CoreChanged) != 3 {
		t.Fatalf("CoreChanged=%v", info.CoreChanged)
	}
	if e.Core(0) != 2 {
		t.Fatalf("Core(0)=%d", e.Core(0))
	}
	if _, err := e.RemoveEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if e.Core(0) != 1 {
		t.Fatalf("Core(0)=%d after removal", e.Core(0))
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdges(t *testing.T) {
	e, err := FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumVertices() != 4 || e.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", e.NumVertices(), e.NumEdges())
	}
	if e.Core(3) != 1 || e.Core(2) != 2 {
		t.Fatalf("cores=%v", e.Cores())
	}
	if _, err := FromEdges([][2]int{{0, 0}}); err == nil {
		t.Fatal("self loop should fail")
	}
	if _, err := FromEdges([][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("duplicate edge should fail")
	}
}

func TestLoadAndSave(t *testing.T) {
	in := "# demo\n0 1\n1 2\n0 2\n"
	e, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if e.Degeneracy() != 2 {
		t.Fatalf("degeneracy=%d", e.Degeneracy())
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e2.NumEdges() != e.NumEdges() {
		t.Fatal("round trip lost edges")
	}
	if _, err := Load(strings.NewReader("bad line\n")); err == nil {
		t.Fatal("malformed input should fail")
	}
}

// TestOptionCombos: every remaining option, alone, builds an engine that
// maintains correct cores, whichever execution path the rebuild threshold
// picks for the batch.
func TestOptionCombos(t *testing.T) {
	for i, opts := range [][]Option{
		nil,
		{WithRebuildThreshold(-1, 0)}, // never recompute
		{WithRebuildThreshold(1, 0)},  // always recompute
		{WithWorkers(4)},
	} {
		e := NewEngine(opts...)
		if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}); err != nil {
			t.Fatalf("options %d: %v", i, err)
		}
		if e.Core(1) != 2 {
			t.Fatalf("options %d: core=%d", i, e.Core(1))
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("options %d: %v", i, err)
		}
	}
}

func TestQueries(t *testing.T) {
	e, err := FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasEdge(0, 1) || e.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong")
	}
	if e.Degree(2) != 3 {
		t.Fatalf("Degree(2)=%d", e.Degree(2))
	}
	nb := e.Neighbors(2)
	if len(nb) != 3 {
		t.Fatalf("Neighbors(2)=%v", nb)
	}
	kc := e.KCore(2)
	if len(kc) != 3 {
		t.Fatalf("KCore(2)=%v", kc)
	}
	if len(e.KCore(5)) != 0 {
		t.Fatal("KCore(5) should be empty")
	}
	if len(e.Edges()) != 4 {
		t.Fatalf("Edges()=%v", e.Edges())
	}
	if e.Core(-1) != 0 || e.Core(1000) != 0 {
		t.Fatal("out-of-range Core should be 0")
	}
}

func TestErrorsWrapped(t *testing.T) {
	e := NewEngine()
	mustAdd(t, e, 0, 1)
	if _, err := e.AddEdge(0, 1); err == nil || !strings.Contains(err.Error(), "kcore:") {
		t.Fatalf("duplicate add error = %v", err)
	}
	if _, err := e.RemoveEdge(5, 6); err == nil || !strings.Contains(err.Error(), "kcore:") {
		t.Fatalf("missing remove error = %v", err)
	}
}

func TestDecomposeStatic(t *testing.T) {
	cores, err := Decompose([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 2, 1}
	for v := range want {
		if cores[v] != want[v] {
			t.Fatalf("cores=%v want %v", cores, want)
		}
	}
	if _, err := Decompose([][2]int{{1, 1}}); err == nil {
		t.Fatal("self loop should fail")
	}
}

// TestConstructionErrors pins which edge a construction error names when an
// edge list holds more than one bad edge: FromEdges and Decompose report the
// first edge that inserting the list in order would refuse, and FromIndex
// the first edge that is out of range or refused.
func TestConstructionErrors(t *testing.T) {
	star := func(tail ...[2]int) [][2]int {
		var edges [][2]int
		for v := 1; v <= 300; v++ {
			edges = append(edges, [2]int{0, v})
		}
		return append(edges, tail...)
	}
	for _, tc := range []struct {
		name      string
		edges     [][2]int
		vertices  int    // FromIndex's vertex count
		wantEdges string // FromEdges' and Decompose's error
		wantIndex string // FromIndex's error
	}{
		{
			name:      "duplicate reversed",
			edges:     [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 1}, {0, 3}},
			vertices:  4,
			wantEdges: "kcore: edge (2,1): graph: edge already present",
			wantIndex: "kcore: index state: edge (2,1): graph: edge already present",
		},
		{
			name:      "self loop after duplicate",
			edges:     [][2]int{{0, 1}, {1, 2}, {1, 0}, {3, 3}},
			vertices:  4,
			wantEdges: "kcore: edge (1,0): graph: edge already present",
			wantIndex: "kcore: index state: edge (1,0): graph: edge already present",
		},
		{
			name:      "duplicate after self loop",
			edges:     [][2]int{{0, 1}, {1, 2}, {3, 3}, {1, 0}},
			vertices:  4,
			wantEdges: "kcore: edge (3,3): graph: self loops are not supported",
			wantIndex: "kcore: index state: edge (3,3): graph: self loops are not supported",
		},
		{
			name:      "negative id",
			edges:     [][2]int{{0, 1}, {2, -1}, {1, 0}},
			vertices:  4,
			wantEdges: "kcore: edge (2,-1): graph: vertex id must be non-negative",
			wantIndex: "kcore: index state: edge (2,-1) outside vertex range 4",
		},
		{
			name:      "duplicate before out of range",
			edges:     [][2]int{{0, 1}, {1, 2}, {2, 1}, {0, 9}},
			vertices:  4,
			wantEdges: "kcore: edge (2,1): graph: edge already present",
			wantIndex: "kcore: index state: edge (2,1): graph: edge already present",
		},
		{
			name:      "out of range before duplicate",
			edges:     [][2]int{{0, 1}, {1, 2}, {0, 9}, {2, 1}},
			vertices:  4,
			wantEdges: "kcore: edge (2,1): graph: edge already present",
			wantIndex: "kcore: index state: edge (0,9) outside vertex range 4",
		},
		{
			name:      "duplicate at a hub",
			edges:     star([2]int{5, 6}, [2]int{290, 0}, [2]int{7, 7}),
			vertices:  301,
			wantEdges: "kcore: edge (290,0): graph: edge already present",
			wantIndex: "kcore: index state: edge (290,0): graph: edge already present",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(fn string, err error, want string) {
				t.Helper()
				if err == nil || err.Error() != want {
					t.Errorf("%s error %v, want %q", fn, err, want)
				}
			}
			_, err := FromEdges(tc.edges)
			check("FromEdges", err, tc.wantEdges)
			_, err = Decompose(tc.edges)
			check("Decompose", err, tc.wantEdges)
			_, err = FromIndex(&IndexState{Vertices: tc.vertices, Edges: tc.edges})
			check("FromIndex", err, tc.wantIndex)
		})
	}
}

// TestConcurrentAccess exercises the engine from multiple goroutines; run
// with -race to verify the locking discipline.
func TestConcurrentAccess(t *testing.T) {
	e := NewEngine()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 9))
			for i := 0; i < 200; i++ {
				u, v := rng.IntN(20), rng.IntN(20)
				if u == v {
					continue
				}
				switch rng.IntN(3) {
				case 0:
					_, _ = e.AddEdge(u, v)
				case 1:
					_, _ = e.RemoveEdge(u, v)
				default:
					_ = e.Core(u)
					_ = e.Degeneracy()
				}
			}
		}()
	}
	wg.Wait()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCommunityQueries(t *testing.T) {
	// Two K4s joined through a low-core middle vertex (the paper's Fig. 3
	// shape: 3-subcores hang off a lower-core region): the 3-core has two
	// components that merge at lower levels.
	var edges [][2]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, [2]int{i, j}, [2]int{4 + i, 4 + j})
		}
	}
	edges = append(edges, [2]int{3, 8}, [2]int{8, 4}) // middle vertex 8, core 2
	e, err := FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	comm := e.Community(0, 3)
	if len(comm) != 4 {
		t.Fatalf("Community(0,3)=%v", comm)
	}
	commB := e.Community(5, 3)
	if len(commB) != 4 || commB[0] == comm[0] {
		t.Fatalf("Community(5,3)=%v overlaps %v", commB, comm)
	}
	// At k<=2 the middle vertex merges everything into one community.
	if len(e.Community(0, 2)) != 9 {
		t.Fatalf("Community(0,2)=%v", e.Community(0, 2))
	}
	comps := e.CoreComponents(3)
	if len(comps) != 2 {
		t.Fatalf("CoreComponents(3)=%v", comps)
	}
	if len(e.CoreComponents(5)) != 0 {
		t.Fatal("CoreComponents(5) should be empty")
	}
	if e.Community(-5, 2) != nil {
		t.Fatal("unknown vertex community should be nil")
	}
}

func TestGreedyColoring(t *testing.T) {
	e := NewEngine()
	// K4 needs exactly 4 colors.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			mustAdd(t, e, i, j)
		}
	}
	mustAdd(t, e, 3, 4) // pendant
	colors, k := e.GreedyColoring()
	if k != 4 {
		t.Fatalf("colors=%d want 4", k)
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if colors[u] == colors[v] {
				t.Fatal("K4 coloring improper")
			}
		}
	}
	if colors[4] == colors[3] {
		t.Fatal("pendant conflicts")
	}
}

// TestSaveLoadIndex: Index -> FromIndex restores exactly the captured
// state, and the restored engine keeps maintaining.
func TestSaveLoadIndex(t *testing.T) {
	e, err := FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Index()
	e2, err := FromIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e2.Index(), st) {
		t.Fatal("restored state differs from the capture")
	}
	mustAdd(t, e2, 3, 0)
	if err := e2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVertexOps(t *testing.T) {
	e, err := FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	v, info, err := e.AddVertexWithEdges([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || e.Core(v) != 3 {
		t.Fatalf("v=%d core=%d", v, e.Core(v))
	}
	if len(info.CoreChanged) == 0 {
		t.Fatal("no core changes reported")
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Duplicate neighbor in the list fails atomically (nothing applied).
	if _, _, err := e.AddVertexWithEdges([]int{0, 0}); err == nil {
		t.Fatal("duplicate neighbor should fail")
	}
	if _, err := e.RemoveVertex(3); err != nil {
		t.Fatal(err)
	}
	if e.Core(3) != 0 || e.Degree(3) != 0 {
		t.Fatalf("vertex 3 not disconnected: core=%d deg=%d", e.Core(3), e.Degree(3))
	}
	// Removing an isolated/unknown vertex is a no-op.
	if _, err := e.RemoveVertex(999); err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

func mustAdd(t testing.TB, e *Engine, u, v int) {
	t.Helper()
	if _, err := e.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}
