package persist

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kcore"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden format fixtures")

// goldenState is the fixed engine state both golden fixtures derive from.
// Do not change it: the fixtures pin the byte format, and this state pins
// the fixtures.
func goldenState(tb testing.TB) *kcore.IndexState {
	tb.Helper()
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}, {1, 5}}
	e, err := kcore.FromEdges(edges)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Apply(kcore.Batch{kcore.Add(0, 5), kcore.Remove(2, 3), kcore.Add(6, 0)}); err != nil {
		tb.Fatal(err)
	}
	return e.Index()
}

// goldenWAL is the fixed WAL byte stream (header + three records, one with
// a multi-byte varint vertex id).
func goldenWAL(tb testing.TB) []byte {
	tb.Helper()
	buf := append([]byte(nil), walMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, WALVersion)
	recs := []kcore.AppliedBatch{
		{Seq: 2, Updates: []kcore.Update{kcore.Add(0, 1), kcore.Add(1, 2)}},
		{Seq: 3, Updates: []kcore.Update{kcore.Add(0, 300)}},
		{Seq: 6, Updates: []kcore.Update{kcore.Remove(0, 1), kcore.Add(2, 3), kcore.Add(1, 3)}},
	}
	for _, r := range recs {
		var err error
		buf, err = AppendWALFrame(buf, r)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name) }

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run 'go test ./internal/persist -run Golden -update'): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding changed (%d bytes, golden %d).\n"+
			"The on-disk format is pinned: if this change is intentional, bump the "+
			"format version, keep a decoder for the old version (or document the "+
			"migration), and regenerate with -update.", name, len(got), len(want))
	}
}

// TestGoldenSnapshotFormat pins the snapshot byte format: the fixed state
// must encode to the committed fixture byte for byte, and the fixture must
// decode back to the exact state.
func TestGoldenSnapshotFormat(t *testing.T) {
	st := goldenState(t)
	data, err := EncodeSnapshot(st)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot_v1.bin", data)

	e, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := e.Index()
	if got.Seq != st.Seq || got.Vertices != st.Vertices {
		t.Fatalf("golden decode header mismatch: %+v vs %+v", got, st)
	}
}

// TestGoldenSeededSnapshotLoads keeps a version-1 snapshot written before
// header bytes 16–23 became reserved (it stores seed 7 there) as a
// decode-only fixture: it must load to the same state as the current
// fixture, which differs from it only in those bytes and the CRC.
func TestGoldenSeededSnapshotLoads(t *testing.T) {
	old, err := os.ReadFile(goldenPath("snapshot_v1_seeded.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if seed := binary.LittleEndian.Uint64(old[16:24]); seed != 7 {
		t.Fatalf("seeded fixture stores %d in bytes 16-23, want 7", seed)
	}
	cur, err := os.ReadFile(goldenPath("snapshot_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeSnapshot(cur)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(old)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded fixture decodes to %+v, current fixture to %+v", got, want)
	}
	restore := func(data []byte) *kcore.IndexState {
		e, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return e.Index()
	}
	if !reflect.DeepEqual(restore(old), restore(cur)) {
		t.Fatal("seeded fixture restores a different engine state than the current fixture")
	}
}

// TestGoldenWALFormat pins the WAL byte format.
func TestGoldenWALFormat(t *testing.T) {
	data := goldenWAL(t)
	checkGolden(t, "wal_v1.bin", data)

	var seqs []uint64
	res, err := scanWAL(bytes.NewReader(data), func(rec kcore.AppliedBatch) error {
		seqs = append(seqs, rec.Seq)
		return nil
	})
	if err != nil || res.tornBytes != 0 {
		t.Fatalf("golden WAL scan: %v (torn %d)", err, res.tornBytes)
	}
	if len(seqs) != 3 || seqs[2] != 6 {
		t.Fatalf("golden WAL records = %v", seqs)
	}
}

// TestGoldenBatchFormat pins the binary batch-frame byte format used as the
// application/x-kcore-batch wire body.
func TestGoldenBatchFormat(t *testing.T) {
	updates := []kcore.Update{
		kcore.Add(0, 1), kcore.Add(1, 2), kcore.Remove(0, 1), kcore.Add(0, 300),
	}
	data, err := AppendBatchFrame(nil, updates)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batch_v1.bin", data)

	got, err := DecodeBatchFrame(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(updates) {
		t.Fatalf("golden batch decoded %d updates, want %d", len(got), len(updates))
	}
	for i := range got {
		if got[i] != updates[i] {
			t.Fatalf("golden batch update %d = %+v, want %+v", i, got[i], updates[i])
		}
	}
}

// TestFormatVersionsPinned makes a format-version bump an explicit,
// reviewed act: changing either constant fails here until the golden
// fixtures (and this test) are updated together.
func TestFormatVersionsPinned(t *testing.T) {
	if SnapshotVersion != 1 {
		t.Fatalf("SnapshotVersion = %d; the golden fixtures pin version 1. "+
			"Add a snapshot_v%d.bin fixture, keep (or explicitly drop, with a "+
			"migration note) the v1 decoder, and update this test.", SnapshotVersion, SnapshotVersion)
	}
	if WALVersion != 1 {
		t.Fatalf("WALVersion = %d; the golden fixtures pin version 1. "+
			"Add a wal_v%d.bin fixture, keep (or explicitly drop, with a "+
			"migration note) the v1 decoder, and update this test.", WALVersion, WALVersion)
	}
	if BatchVersion != 1 {
		t.Fatalf("BatchVersion = %d; the golden fixtures pin version 1. "+
			"Add a batch_v%d.bin fixture, keep (or explicitly drop, with a "+
			"migration note) the v1 decoder, and update this test.", BatchVersion, BatchVersion)
	}
}
