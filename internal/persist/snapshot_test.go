package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/gen"
)

// testEngine builds a deterministic engine with some update history, so the
// maintained k-order differs from a fresh decomposition of the same edges.
func testEngine(t *testing.T) *kcore.Engine {
	t.Helper()
	g := gen.BarabasiAlbert(80, 3, 11)
	e, err := kcore.FromEdges(g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	// Churn a little so order state is history-dependent (fresh vertices, so
	// validity is independent of the BA topology; one pair coalesces).
	if _, err := e.Apply(kcore.Batch{
		kcore.Add(0, 80), kcore.Add(1, 81), kcore.Remove(0, 80), kcore.Add(2, 82),
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// stateOf captures the observable maintained state for comparison.
func stateOf(t *testing.T, e *kcore.Engine) *kcore.IndexState {
	return e.Index()
}

// assertSameState fails unless two engines agree on cores, k-order, and seq.
func assertSameState(t *testing.T, want, got *kcore.Engine) {
	t.Helper()
	ws, gs := stateOf(t, want), stateOf(t, got)
	if ws.Seq != gs.Seq {
		t.Fatalf("seq = %d, want %d", gs.Seq, ws.Seq)
	}
	if !slices.Equal(ws.Cores, gs.Cores) {
		t.Fatalf("core numbers differ\n got %v\nwant %v", gs.Cores, ws.Cores)
	}
	if !slices.Equal(ws.Order, gs.Order) {
		t.Fatalf("maintained k-order differs\n got %v\nwant %v", gs.Order, ws.Order)
	}
}

// assertEquivalentState fails unless two engines agree on seq, core numbers,
// and edge set, and got maintains a valid k-order. Unlike assertSameState it
// does NOT demand a bit-identical k-order: snapshots store edges canonically
// sorted, so a restored engine's adjacency ordering differs from the live
// engine's historical swap-remove ordering, and replaying a WAL tail recorded
// after a mid-churn compaction can then break k-order ties differently. Both
// orders are valid maintained decompositions of the same graph (Validate
// proves order-validity); demanding Order bit-equality across a compaction
// boundary was a ~15% flake. Deterministic round-trip tests (no compaction
// mid-churn) still use the strict assertSameState.
func assertEquivalentState(t *testing.T, want, got *kcore.Engine) {
	t.Helper()
	ws, gs := stateOf(t, want), stateOf(t, got)
	if ws.Seq != gs.Seq {
		t.Fatalf("seq = %d, want %d", gs.Seq, ws.Seq)
	}
	if !slices.Equal(ws.Cores, gs.Cores) {
		t.Fatalf("core numbers differ\n got %v\nwant %v", gs.Cores, ws.Cores)
	}
	if we, ge := canonicalEdges(ws.Edges), canonicalEdges(gs.Edges); !slices.Equal(we, ge) {
		t.Fatalf("edge sets differ\n got %v\nwant %v", ge, we)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("restored engine invalid: %v", err)
	}
}

// canonicalEdges normalizes endpoint order and sorts, so edge sets compare
// independently of adjacency history.
func canonicalEdges(edges [][2]int) [][2]int {
	out := make([][2]int, len(edges))
	for i, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		out[i] = e
	}
	slices.SortFunc(out, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	e := testEngine(t)
	path := filepath.Join(t.TempDir(), "snap.kcs")
	if err := Save(path, e); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	assertSameState(t, e, got)
	if err := got.Validate(); err != nil {
		t.Fatalf("restored engine invalid: %v", err)
	}
	// The restored engine evolves identically: same updates, same state.
	// Fresh vertices keep the batch valid regardless of the BA topology.
	batch := kcore.Batch{kcore.Add(2, 80), kcore.Remove(2, 80), kcore.Add(81, 3), kcore.Add(81, 5)}
	if _, err := e.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Apply(batch); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, e, got)
}

// TestSnapshotHeaderFixedBytes pins header bytes 12 (heuristic) and 13
// (order structure): the engine runs one configuration, so it writes 0 to
// both. A snapshot with byte 13 = 1, as engines that stored the tag list
// wrote it, loads to the same state; any other value is corrupt. Bytes
// 16–23 are reserved: written as 0, and ignored on read, so the seed older
// engines stored there loads the same state.
func TestSnapshotHeaderFixedBytes(t *testing.T) {
	e := testEngine(t)
	data, err := EncodeSnapshot(stateOf(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if data[12] != 0 || data[13] != 0 {
		t.Fatalf("header bytes 12-13 = %d %d, want 0 0", data[12], data[13])
	}
	if r := binary.LittleEndian.Uint64(data[16:24]); r != 0 {
		t.Fatalf("header bytes 16-23 = %#x, want 0", r)
	}
	withHeader := func(heuristic, structure byte, reserved uint64) (*kcore.Engine, error) {
		b := slices.Clone(data)
		b[12], b[13] = heuristic, structure
		binary.LittleEndian.PutUint64(b[16:24], reserved)
		n := len(b) - 4
		binary.LittleEndian.PutUint32(b[n:], crc32.ChecksumIEEE(b[:n]))
		return ReadSnapshot(bytes.NewReader(b))
	}
	fresh, err := withHeader(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tagList, err := withHeader(0, 1, 0)
	if err != nil {
		t.Fatalf("snapshot with structure byte 1: %v", err)
	}
	if !reflect.DeepEqual(tagList.Index(), fresh.Index()) {
		t.Fatal("structure byte 1 restores a different state than byte 0")
	}
	assertSameState(t, e, tagList)
	seeded, err := withHeader(0, 0, 987654321)
	if err != nil {
		t.Fatalf("snapshot with nonzero bytes 16-23: %v", err)
	}
	if !reflect.DeepEqual(seeded.Index(), fresh.Index()) {
		t.Fatal("nonzero bytes 16-23 restore a different state than 0")
	}
	for _, bad := range [][2]byte{{1, 0}, {0, 2}} {
		if _, err := withHeader(bad[0], bad[1], 0); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("header bytes %d %d: err = %v, want ErrCorruptSnapshot", bad[0], bad[1], err)
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	e := testEngine(t)
	st := stateOf(t, e)
	data, err := EncodeSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		b := slices.Clone(data)
		b = mutate(b)
		if _, err := DecodeSnapshot(b); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
	check("empty", func(b []byte) []byte { return nil })
	check("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	check("bad version", func(b []byte) []byte { b[8] = 99; return b })
	check("flipped header bit", func(b []byte) []byte { b[20] ^= 0x10; return b })
	check("flipped body bit", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
	check("flipped trailer bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	check("truncated", func(b []byte) []byte { return b[:len(b)-7] })
	check("extended", func(b []byte) []byte { return append(b, 0xAB) })
}

// TestSnapshotRejectsForgedState proves a well-formed snapshot (valid CRC)
// carrying an internally inconsistent state still fails verification
// instead of loading silently-wrong core numbers.
func TestSnapshotRejectsForgedState(t *testing.T) {
	e := testEngine(t)
	st := stateOf(t, e)
	for name, forge := range map[string]func(*kcore.IndexState){
		// Claim a core number the graph cannot support.
		"core": func(f *kcore.IndexState) { f.Cores = slices.Clone(st.Cores); f.Cores[0]++ },
	} {
		forged := *st
		forge(&forged)
		data, err := EncodeSnapshot(&forged)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(data); err != nil {
			t.Fatalf("%s: forged snapshot should decode structurally: %v", name, err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("%s: forged state loaded: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

// loadFile reads the snapshot file at path with ReadSnapshot.
func loadFile(path string) (*kcore.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// TestSaveIsAtomic proves a Save over an existing snapshot leaves either
// the old or the new bytes, never a partial file, and cleans its temp.
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.kcs")
	e := testEngine(t)
	if err := Save(path, e); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEdge(4, 70); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, e); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.kcs" {
		t.Fatalf("directory not clean after Save: %v", entries)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, e, got)
}

// TestEncodeRejectsInvalidEdges: malformed IndexState edges must fail the
// encode, never produce a snapshot that cannot be decoded.
func TestEncodeRejectsInvalidEdges(t *testing.T) {
	base := stateOf(t, testEngine(t))
	for name, edges := range map[string][][2]int{
		"negative second endpoint": {{5, -1}},
		"negative first endpoint":  {{-1, 5}},
		"self loop":                {{4, 4}},
		"out of range":             {{0, base.Vertices}},
	} {
		st := *base
		st.Edges = edges
		if _, err := EncodeSnapshot(&st); err == nil {
			t.Errorf("%s: EncodeSnapshot accepted %v", name, edges)
		}
	}
}

// TestSnapshotEmptyEngine covers the smallest state: zero vertices.
func TestSnapshotEmptyEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.kcs")
	if err := Save(path, kcore.NewEngine()); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 || got.Seq() != 0 {
		t.Fatalf("empty snapshot loaded %d vertices, seq %d", got.NumVertices(), got.Seq())
	}
}
