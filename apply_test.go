package kcore

import (
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// TestApplyBatchSemantics is the table test for Apply: mixed operations,
// validation failures (error-mid-batch must leave the engine untouched),
// and the structured errors carried by *BatchError.
func TestApplyBatchSemantics(t *testing.T) {
	triangle := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	tests := []struct {
		name      string
		seed      [][2]int
		batch     Batch
		wantErr   error // sentinel expected via errors.Is; nil for success
		wantIdx   int   // BatchError.Index when wantErr != nil
		applied   int
		coalesced int
		edges     int // NumEdges after the call
		cores     map[int]int
		totalLen  int // len(Total.CoreChanged); -1 to skip
	}{
		{
			name:     "empty batch",
			batch:    Batch{},
			applied:  0,
			edges:    0,
			totalLen: 0,
		},
		{
			name:     "pure insertions",
			batch:    Batch{Add(0, 1), Add(1, 2), Add(0, 2)},
			applied:  3,
			edges:    3,
			cores:    map[int]int{0: 2, 1: 2, 2: 2},
			totalLen: 3,
		},
		{
			name:     "mixed ops",
			seed:     triangle,
			batch:    Batch{Remove(0, 2), Add(2, 3), Add(0, 3)},
			applied:  3,
			edges:    4,
			cores:    map[int]int{0: 2, 1: 2, 2: 2, 3: 2}, // the batch leaves a 4-cycle
			totalLen: -1,
		},
		{
			name:      "add then remove same edge coalesces",
			batch:     Batch{Add(4, 5), Remove(4, 5)},
			applied:   0,
			coalesced: 2,
			edges:     0,
			cores:     map[int]int{4: 0, 5: 0},
			totalLen:  0, // the pair is elided: no transient changes
		},
		{
			name:      "remove then re-add present edge coalesces",
			seed:      [][2]int{{0, 1}},
			batch:     Batch{Remove(0, 1), Add(0, 1)},
			applied:   0,
			coalesced: 2,
			edges:     1,
			cores:     map[int]int{0: 1, 1: 1},
			totalLen:  0, // elided: endpoints never transit through core 0
		},
		{
			name: "coalesced pair then real re-add",
			// Add+Remove cancel; the trailing Add survives and applies.
			batch:     Batch{Add(0, 1), Remove(0, 1), Add(0, 1)},
			applied:   1,
			coalesced: 2,
			edges:     1,
			cores:     map[int]int{0: 1, 1: 1},
			totalLen:  2,
		},
		{
			name:    "self loop rejected",
			seed:    triangle,
			batch:   Batch{Add(3, 4), Add(5, 5)},
			wantErr: ErrSelfLoop,
			wantIdx: 1,
			edges:   3,
		},
		{
			name:    "negative vertex rejected",
			batch:   Batch{Add(-1, 2)},
			wantErr: ErrVertexRange,
			wantIdx: 0,
			edges:   0,
		},
		{
			name:    "duplicate against graph rejected",
			seed:    triangle,
			batch:   Batch{Add(2, 3), Add(0, 1)},
			wantErr: ErrDuplicateEdge,
			wantIdx: 1,
			edges:   3,
		},
		{
			name:    "duplicate within batch rejected",
			batch:   Batch{Add(0, 1), Add(1, 0)},
			wantErr: ErrDuplicateEdge,
			wantIdx: 1,
			edges:   0,
		},
		{
			name:    "missing removal rejected",
			seed:    triangle,
			batch:   Batch{Remove(0, 3)},
			wantErr: ErrMissingEdge,
			wantIdx: 0,
			edges:   3,
		},
		{
			name:    "removal invalidated by earlier removal",
			seed:    triangle,
			batch:   Batch{Remove(0, 1), Remove(1, 0)},
			wantErr: ErrMissingEdge,
			wantIdx: 1,
			edges:   3,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			e, err := FromEdges(tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			before := e.Cores()
			info, err := e.Apply(tc.batch)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Apply error = %v, want errors.Is %v", err, tc.wantErr)
				}
				var be *BatchError
				if !errors.As(err, &be) {
					t.Fatalf("Apply error %T is not *BatchError", err)
				}
				if be.Index != tc.wantIdx {
					t.Fatalf("BatchError.Index = %d, want %d", be.Index, tc.wantIdx)
				}
				// Error-mid-batch: nothing may have been applied.
				if info.Applied != 0 {
					t.Fatalf("Applied = %d after failed batch", info.Applied)
				}
				after := e.Cores()
				for v := range before {
					if before[v] != after[v] {
						t.Fatalf("core(%d) mutated by failed batch: %d -> %d", v, before[v], after[v])
					}
				}
				if e.Seq() != 0 {
					t.Fatalf("Seq = %d after failed batch", e.Seq())
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if info.Applied != tc.applied {
					t.Fatalf("Applied = %d, want %d", info.Applied, tc.applied)
				}
				if info.Coalesced != tc.coalesced {
					t.Fatalf("Coalesced = %d, want %d", info.Coalesced, tc.coalesced)
				}
				// Updates is positional: one entry per batch position, with
				// coalesced positions zeroed and marked.
				if len(info.Updates) != len(tc.batch) {
					t.Fatalf("len(Updates) = %d, want %d", len(info.Updates), len(tc.batch))
				}
				gotCoalesced := 0
				for _, u := range info.Updates {
					if u.Coalesced {
						gotCoalesced++
						if u.CoreChanged != nil || u.Visited != 0 {
							t.Fatalf("coalesced entry carries data: %+v", u)
						}
					}
				}
				if gotCoalesced != tc.coalesced {
					t.Fatalf("coalesced entries = %d, want %d", gotCoalesced, tc.coalesced)
				}
				// Coalesced updates consume no sequence numbers.
				if info.Seq != uint64(tc.applied) {
					t.Fatalf("Seq = %d, want %d", info.Seq, tc.applied)
				}
				if tc.totalLen >= 0 && len(info.Total.CoreChanged) != tc.totalLen {
					t.Fatalf("Total.CoreChanged = %v, want %d entries",
						info.Total.CoreChanged, tc.totalLen)
				}
			}
			if got := e.NumEdges(); got != tc.edges {
				t.Fatalf("NumEdges = %d, want %d", got, tc.edges)
			}
			for v, c := range tc.cores {
				if e.Core(v) != c {
					t.Fatalf("core(%d) = %d, want %d", v, e.Core(v), c)
				}
			}
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestApplyAggregatedDedup: a vertex whose core changes twice during a batch
// must appear exactly once in the aggregated Total.CoreChanged, while the
// per-update Updates keep every occurrence.
func TestApplyAggregatedDedup(t *testing.T) {
	e, err := FromEdges([][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Closing the triangle lifts 0,1,2 to core 2; removing a different
	// triangle edge drops them back. (Removing the same edge would coalesce
	// the pair away instead — see TestApplyBatchSemantics.)
	info, err := e.Apply(Batch{Add(0, 2), Remove(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Updates[0].CoreChanged) != 3 || len(info.Updates[1].CoreChanged) != 3 {
		t.Fatalf("per-update changes = %v", info.Updates)
	}
	if len(info.Total.CoreChanged) != 3 {
		t.Fatalf("Total.CoreChanged = %v, want 3 deduplicated entries", info.Total.CoreChanged)
	}
	seen := map[int]bool{}
	for _, v := range info.Total.CoreChanged {
		if seen[v] {
			t.Fatalf("vertex %d duplicated in %v", v, info.Total.CoreChanged)
		}
		seen[v] = true
	}
	if info.Total.Visited != info.Updates[0].Visited+info.Updates[1].Visited {
		t.Fatalf("Total.Visited = %d, want sum of %v", info.Total.Visited, info.Updates)
	}
}

// TestVertexOpsDedupAndAtomicity covers the batch-backed vertex operations:
// aggregated results deduplicate, and invalid input applies nothing.
func TestVertexOpsDedupAndAtomicity(t *testing.T) {
	e, err := FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate neighbors: atomic failure, no partial edges.
	if _, _, err := e.AddVertexWithEdges([]int{0, 0}); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate neighbor error = %v", err)
	}
	if e.NumEdges() != 3 || e.Degree(3) != 0 {
		t.Fatalf("failed AddVertexWithEdges mutated the engine: m=%d deg(3)=%d",
			e.NumEdges(), e.Degree(3))
	}
	v, info, err := e.AddVertexWithEdges([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || e.Core(v) != 3 {
		t.Fatalf("v=%d core=%d", v, e.Core(v))
	}
	for i, x := range info.CoreChanged {
		for _, y := range info.CoreChanged[i+1:] {
			if x == y {
				t.Fatalf("aggregated CoreChanged has duplicate %d: %v", x, info.CoreChanged)
			}
		}
	}
	if _, err := e.RemoveVertex(v); err != nil {
		t.Fatal(err)
	}
	if e.Core(v) != 0 || e.Degree(v) != 0 {
		t.Fatalf("vertex %d not disconnected", v)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSentinelErrors: every public mutation wraps the exported sentinels so
// errors.Is works through all layers (engine -> korder -> graph).
func TestSentinelErrors(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate add error = %v", err)
	}
	if _, err := e.AddEdge(2, 2); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop error = %v", err)
	}
	if _, err := e.AddEdge(-3, 1); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("negative id error = %v", err)
	}
	// Both in-range and out-of-range missing edges.
	if _, err := e.RemoveEdge(0, 5); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("missing remove error = %v", err)
	}
	if _, err := e.RemoveEdge(50, 60); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("out-of-range remove error = %v", err)
	}
}

// TestViewSnapshot: a View must stay frozen while the engine moves on.
func TestViewSnapshot(t *testing.T) {
	e, err := FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	v := e.View()
	if v.Seq() != 0 || v.NumEdges() != 3 || v.Degeneracy() != 2 || v.Core(0) != 2 {
		t.Fatalf("initial view wrong: seq=%d m=%d deg=%d", v.Seq(), v.NumEdges(), v.Degeneracy())
	}
	if len(v.KCore(2)) != 3 || len(v.KCore(3)) != 0 {
		t.Fatalf("view KCore wrong: %v", v.KCore(2))
	}
	// Mutate the engine: the view must not move.
	if _, err := e.Apply(Batch{Add(0, 3), Add(1, 3), Add(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if e.Core(0) != 3 || e.Seq() != 3 {
		t.Fatalf("engine core(0)=%d seq=%d", e.Core(0), e.Seq())
	}
	if v.Core(0) != 2 || v.Core(3) != 0 || v.NumEdges() != 3 || v.Seq() != 0 {
		t.Fatal("view changed after engine mutation")
	}
	// Mutating the copy returned by Cores must not corrupt the view.
	v.Cores()[0] = 99
	if v.Core(0) != 2 {
		t.Fatal("View.Cores aliases internal storage")
	}
	v2 := e.View()
	if v2.Seq() != 3 || v2.Degeneracy() != 3 || v2.NumVertices() != 4 {
		t.Fatalf("second view wrong: seq=%d deg=%d n=%d", v2.Seq(), v2.Degeneracy(), v2.NumVertices())
	}
}

// TestAddRemoveEdgesConveniences covers the pure-batch helpers.
func TestAddRemoveEdgesConveniences(t *testing.T) {
	e := NewEngine()
	info, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Applied != 4 || e.NumEdges() != 4 || e.Core(0) != 2 {
		t.Fatalf("AddEdges: applied=%d m=%d core(0)=%d", info.Applied, e.NumEdges(), e.Core(0))
	}
	if _, err := e.RemoveEdges([][2]int{{0, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if e.NumEdges() != 2 || e.Core(0) != 1 {
		t.Fatalf("RemoveEdges: m=%d core(0)=%d", e.NumEdges(), e.Core(0))
	}
	if _, err := e.RemoveEdges([][2]int{{0, 1}, {0, 1}}); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("double removal error = %v", err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzApplyBatch feeds Apply batches over about 16 vertex ids that mix
// valid and invalid updates (negative ids, self loops, ids past
// NumVertices, duplicate adds, missing removes, and add/remove pairs that
// coalesce) and checks each against a naive edge-set model. A rejected
// batch must return a *BatchError at the model's first bad index with the
// model's sentinel and leave Index() unchanged; an accepted batch must
// match the model's Applied, Coalesced, vertex count and edge set, and pass
// Validate.
//
// Each batch is one length byte, then two bytes per update: the first
// holds the kind (low two bits) and u, the second v. Kind 0 adds (u, v),
// 1 removes it, 2 repeats an earlier update of the batch inverted (v picks
// which), and 3 toggles (u, v) against the edges the batch's earlier
// updates leave, which is valid unless an id is bad.
func FuzzApplyBatch(f *testing.F) {
	// Add, cancelling remove, re-add; a negative id at index 2; ids past
	// NumVertices.
	f.Add([]byte{0x02, 0x30, 0x0f, 0x06, 0x00, 0x30, 0x0f, 0x03, 0x0b, 0x03, 0x0f, 0x04, 0x00, 0x06, 0x13, 0x05, 0x01, 0x43, 0x11, 0x07, 0x11})
	// A self loop at index 1; toggle three times; a missing remove.
	f.Add([]byte{0x01, 0x17, 0x06, 0x1c, 0x07, 0x02, 0x07, 0x02, 0x07, 0x02, 0x07, 0x02, 0x01, 0x07, 0x03, 0x21, 0x09})
	// A triangle whose last edge is cancelled; a duplicate add; remove
	// and re-add of a present edge.
	f.Add([]byte{0x03, 0x13, 0x0a, 0x2b, 0x0d, 0x13, 0x0d, 0x06, 0x02, 0x01, 0x10, 0x0a, 0x1b, 0x00, 0x02, 0x29, 0x04, 0x28, 0x04, 0x47, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		model := map[[2]int]bool{} // edge -> present, after the last accepted batch
		vertices := 0
		for nb := 0; len(data) > 0 && nb < 32; nb++ {
			size := 1 + int(data[0])%12
			data = data[1:]
			pending := maps.Clone(model)
			var batch Batch
			for len(batch) < size && len(data) >= 2 {
				kind, u, v := data[0]&3, int(data[0]>>2)%18-1, int(data[1])%18-1
				data = data[2:]
				up := Add(u, v)
				switch kind {
				case 1:
					up = Remove(u, v)
				case 2:
					if len(batch) == 0 {
						continue
					}
					up = batch[(v+1)%len(batch)]
					up.Op = 1 - up.Op
				case 3:
					if pending[[2]int{min(u, v), max(u, v)}] {
						up = Remove(u, v)
					}
				}
				pending[[2]int{min(up.U, up.V), max(up.U, up.V)}] = up.Op == OpAdd
				batch = append(batch, up)
			}
			// The model: validate in order against the pending edge set,
			// and pair each valid update with the pending, still
			// cancellable update on its edge.
			pending = maps.Clone(model)
			last := map[[2]int]int{} // edge -> index of its pending update; -1 once cancelled
			skip := make([]bool, len(batch))
			badIdx, coalesced := -1, 0
			var bad error
			for i, up := range batch {
				key := [2]int{min(up.U, up.V), max(up.U, up.V)}
				switch {
				case up.U < 0 || up.V < 0:
					bad = ErrVertexRange
				case up.U == up.V:
					bad = ErrSelfLoop
				case up.Op == OpAdd && pending[key]:
					bad = ErrDuplicateEdge
				case up.Op == OpRemove && !pending[key]:
					bad = ErrMissingEdge
				}
				if bad != nil {
					badIdx = i
					break
				}
				pending[key] = up.Op == OpAdd
				if j, ok := last[key]; ok && j >= 0 {
					skip[i], skip[j] = true, true
					coalesced += 2
					last[key] = -1
				} else {
					last[key] = i
				}
			}
			before := e.Index()
			info, err := e.Apply(batch)
			if bad != nil {
				var be *BatchError
				if !errors.As(err, &be) || be.Index != badIdx || !errors.Is(err, bad) {
					t.Fatalf("batch %d %v: got %v, want %v at index %d", nb, batch, err, bad, badIdx)
				}
				if !reflect.DeepEqual(e.Index(), before) {
					t.Fatalf("batch %d %v: a rejected batch changed the index", nb, batch)
				}
				continue
			}
			if err != nil {
				t.Fatalf("batch %d %v: %v", nb, batch, err)
			}
			if info.Applied != len(batch)-coalesced || info.Coalesced != coalesced {
				t.Fatalf("batch %d %v: applied %d, coalesced %d; want %d and %d",
					nb, batch, info.Applied, info.Coalesced, len(batch)-coalesced, coalesced)
			}
			model = pending
			for i, up := range batch {
				if !skip[i] {
					vertices = max(vertices, up.U+1, up.V+1)
				}
			}
			var want [][2]int
			for k, present := range model {
				if present {
					want = append(want, k)
				}
			}
			got := e.Edges()
			slices.SortFunc(want, compareEdges)
			slices.SortFunc(got, compareEdges)
			if !slices.Equal(got, want) {
				t.Fatalf("batch %d %v: edges %v, want %v", nb, batch, got, want)
			}
			if e.NumVertices() != vertices {
				t.Fatalf("batch %d %v: %d vertices, want %d", nb, batch, e.NumVertices(), vertices)
			}
			if err := e.Validate(); err != nil {
				t.Fatalf("batch %d %v: %v", nb, batch, err)
			}
		}
	})
}

func compareEdges(a, b [2]int) int {
	if a[0] != b[0] {
		return a[0] - b[0]
	}
	return a[1] - b[1]
}
