package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kcore"
	"kcore/internal/fault"
)

// buildWAL assembles WAL file bytes from records (test helper; the golden
// test also pins the exact output).
func buildWAL(t *testing.T, recs []kcore.AppliedBatch) []byte {
	t.Helper()
	buf := make([]byte, 0, 256)
	buf = append(buf, walMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, WALVersion)
	for _, r := range recs {
		var err error
		buf, err = AppendWALFrame(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func testRecords() []kcore.AppliedBatch {
	return []kcore.AppliedBatch{
		{Seq: 2, Updates: []kcore.Update{kcore.Add(0, 1), kcore.Add(1, 2)}},
		{Seq: 3, Updates: []kcore.Update{kcore.Add(0, 2)}},
		{Seq: 5, Updates: []kcore.Update{kcore.Remove(0, 1), kcore.Add(0, 3)}},
	}
}

func TestWALScanRoundTrip(t *testing.T) {
	data := buildWAL(t, testRecords())
	var got []kcore.AppliedBatch
	res, err := scanWAL(bytes.NewReader(data), func(rec kcore.AppliedBatch) error {
		cp := rec
		cp.Updates = append([]kcore.Update(nil), rec.Updates...)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.tornBytes != 0 || res.goodOffset != int64(len(data)) || res.records != 3 || res.lastSeq != 5 {
		t.Fatalf("scan = %+v, want clean full scan", res)
	}
	want := testRecords()
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("record %d seq = %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		for j := range want[i].Updates {
			if got[i].Updates[j] != want[i].Updates[j] {
				t.Fatalf("record %d update %d = %+v, want %+v", i, j, got[i].Updates[j], want[i].Updates[j])
			}
		}
	}
}

// TestWALTornTails proves every truncation point of a valid WAL is either a
// clean record boundary or a reported torn tail — never an error — and that
// the good offset always lands on the last complete record boundary.
func TestWALTornTails(t *testing.T) {
	data := buildWAL(t, testRecords())
	// Record boundaries, computed from the frame lengths.
	boundaries := []int64{walHeaderLen}
	off := int64(walHeaderLen)
	for i := 0; i < 3; i++ {
		length := binary.LittleEndian.Uint32(data[off : off+4])
		off += walFrameLen + int64(length)
		boundaries = append(boundaries, off)
	}
	for cut := 0; cut <= len(data); cut++ {
		res, err := scanWAL(bytes.NewReader(data[:cut]), func(rec kcore.AppliedBatch) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		wantGood := int64(0)
		for _, b := range boundaries {
			if int64(cut) >= b {
				wantGood = b
			}
		}
		if cut < walHeaderLen {
			wantGood = 0
		}
		if res.goodOffset != wantGood {
			t.Fatalf("cut %d: goodOffset = %d, want %d", cut, res.goodOffset, wantGood)
		}
		if res.goodOffset+res.tornBytes != int64(cut) {
			t.Fatalf("cut %d: good %d + torn %d != cut", cut, res.goodOffset, res.tornBytes)
		}
	}
}

func TestWALRejectsCorruption(t *testing.T) {
	data := buildWAL(t, testRecords())
	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		b := append([]byte(nil), data...)
		b = mutate(b)
		_, err := scanWAL(bytes.NewReader(b), func(rec kcore.AppliedBatch) error { return nil })
		if !errors.Is(err, ErrCorruptWAL) {
			t.Fatalf("%s: err = %v, want ErrCorruptWAL", name, err)
		}
	}
	check("bad magic", func(b []byte) []byte { b[3] ^= 0xff; return b })
	check("bad version", func(b []byte) []byte { b[8] = 9; return b })
	check("payload bit flip", func(b []byte) []byte { b[walHeaderLen+walFrameLen] ^= 0x40; return b })
	check("crc bit flip", func(b []byte) []byte { b[walHeaderLen+5] ^= 0x01; return b })
	check("zero-length record", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[walHeaderLen:], 0)
		return b
	})
	check("seq regression", func(b []byte) []byte {
		// Duplicate the first record after the last: 2 after 5 regresses.
		first := b[walHeaderLen : walHeaderLen+walFrameLen+int(binary.LittleEndian.Uint32(b[walHeaderLen:]))]
		return append(b, first...)
	})
}

// TestWALRefusesGapAppend pins the append-side chaining invariant: a record
// that does not continue the durable sequence — the shape of every batch
// after a failed append, since the engine keeps advancing — is refused and
// NOT written. A gap record would fail replayWAL's chaining check on the
// next Open and make the whole log unrecoverable.
func TestWALRefusesGapAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.kcl")
	w, err := openWAL(path, SyncOff, time.Second, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(kcore.AppliedBatch{Seq: 2, Updates: []kcore.Update{kcore.Add(0, 1), kcore.Add(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	size := w.size
	// Covers seq 5 only: start 4 does not chain onto 2.
	if err := w.append(kcore.AppliedBatch{Seq: 5, Updates: []kcore.Update{kcore.Add(2, 3)}}); !errors.Is(err, errWALGap) {
		t.Fatalf("gap append = %v, want errWALGap", err)
	}
	if w.records != 1 || w.size != size {
		t.Fatal("refused record must not be written")
	}
	// The chaining record is accepted.
	if err := w.append(kcore.AppliedBatch{Seq: 4, Updates: []kcore.Update{kcore.Add(2, 3), kcore.Add(3, 4)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	// Crash window between a compaction's snapshot rename and WAL shrink:
	// every leftover record is covered by the snapshot (base > lastSeq), so
	// the next append chains onto the snapshot seq, not the stale records.
	w2, err := openWAL(path, SyncOff, time.Second, 2, 4, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.append(kcore.AppliedBatch{Seq: 10, Updates: []kcore.Update{kcore.Add(5, 6)}}); err != nil {
		t.Fatalf("append onto snapshot base: %v", err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if _, _, err := ScanWALFile(path, func(rec kcore.AppliedBatch) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[2] != 10 {
		t.Fatalf("records = %v, want [2 4 10]", seqs)
	}
}

// TestWALDeferredFlushAfterTransientFailure: a failed write whose rollback
// succeeds defers the encoded frame instead of dropping it; the next append
// flushes the backlog first, so a transient fault loses nothing and the
// on-disk chain stays contiguous.
func TestWALDeferredFlushAfterTransientFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.kcl")
	pl := fault.New(1)
	w, err := openWAL(path, SyncOff, time.Second, 0, 0, 0, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(kcore.AppliedBatch{Seq: 1, Updates: []kcore.Update{kcore.Add(0, 1)}}); err != nil {
		t.Fatal(err)
	}
	pl.Fail(fault.WALWrite, 1, errors.New("transient: no space left on device"))
	if err := w.append(kcore.AppliedBatch{Seq: 2, Updates: []kcore.Update{kcore.Add(1, 2)}}); err == nil {
		t.Fatal("append with a failing write must report the error")
	}
	if w.failed || w.pendingRecords != 1 || w.lastSeq != 2 {
		t.Fatalf("deferred state: failed=%v pending=%d lastSeq=%d, want clean 1-record backlog at seq 2",
			w.failed, w.pendingRecords, w.lastSeq)
	}
	// The next append flushes the deferred record ahead of itself.
	if err := w.append(kcore.AppliedBatch{Seq: 3, Updates: []kcore.Update{kcore.Add(2, 3)}}); err != nil {
		t.Fatalf("append after transient failure: %v", err)
	}
	if w.pendingRecords != 0 || w.records != 3 {
		t.Fatalf("backlog not flushed: pending=%d records=%d", w.pendingRecords, w.records)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if _, _, err := ScanWALFile(path, func(rec kcore.AppliedBatch) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("records = %v, want the contiguous chain [1 2 3]", seqs)
	}
}

// TestWALRewriteRetainsDeferredFrames: a compaction whose snapshot was
// captured BEFORE a deferred append (Store.Snapshot races applies) must not
// drop the backlog — otherwise the log would silently end up behind the
// engine with the snapshot reporting success. The backlog survives the
// rewrite and flushes into the rebuilt file.
func TestWALRewriteRetainsDeferredFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.kcl")
	pl := fault.New(1)
	w, err := openWAL(path, SyncOff, time.Second, 0, 0, 0, pl)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := w.append(kcore.AppliedBatch{Seq: seq, Updates: []kcore.Update{kcore.Add(int(seq-1), int(seq))}}); err != nil {
			t.Fatal(err)
		}
	}
	pl.Fail(fault.WALWrite, 1, errors.New("transient"))
	if err := w.append(kcore.AppliedBatch{Seq: 3, Updates: []kcore.Update{kcore.Add(2, 3)}}); err == nil {
		t.Fatal("append with a failing write must report the error")
	}
	// Snapshot captured at seq 2, before the deferred seq-3 record.
	if err := w.compactTo(2); err != nil {
		t.Fatal(err)
	}
	if w.pendingRecords != 1 || w.lastSeq != 3 || w.base != 2 {
		t.Fatalf("after rewrite: pending=%d lastSeq=%d base=%d, want the deferred chain retained",
			w.pendingRecords, w.lastSeq, w.base)
	}
	if err := w.append(kcore.AppliedBatch{Seq: 4, Updates: []kcore.Update{kcore.Add(3, 4)}}); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if _, _, err := ScanWALFile(path, func(rec kcore.AppliedBatch) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("records = %v, want [3 4] (deferred record flushed, chain intact)", seqs)
	}
}

// TestWALSealedRebuildByCompact: a sealed log (unusable handle after a
// failed rollback or reopen) refuses appends, and compactTo rebuilds it
// through a rename — clearing the seal so appends resume against the fresh
// file, which replays cleanly.
func TestWALSealedRebuildByCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.kcl")
	w, err := openWAL(path, SyncOff, time.Second, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := w.append(kcore.AppliedBatch{Seq: seq, Updates: []kcore.Update{kcore.Add(int(seq-1), int(seq))}}); err != nil {
			t.Fatal(err)
		}
	}
	w.failed = true // as after a failed rollback
	if err := w.append(kcore.AppliedBatch{Seq: 3, Updates: []kcore.Update{kcore.Add(2, 3)}}); err == nil {
		t.Fatal("sealed log accepted an append")
	}
	if err := w.compactTo(5); err != nil {
		t.Fatalf("rebuild compaction: %v", err)
	}
	if w.failed || w.records != 0 || w.base != 5 {
		t.Fatalf("rebuild left failed=%v records=%d base=%d", w.failed, w.records, w.base)
	}
	if err := w.append(kcore.AppliedBatch{Seq: 6, Updates: []kcore.Update{kcore.Add(3, 4)}}); err != nil {
		t.Fatalf("append after rebuild: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if _, _, err := ScanWALFile(path, func(rec kcore.AppliedBatch) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 6 {
		t.Fatalf("rebuilt log records = %v, want [6]", seqs)
	}
}

func TestWALAppendAndCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.kcl")
	w, err := openWAL(path, SyncAlways, time.Second, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords() {
		if err := w.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.records != 3 || w.lastSeq != 5 || w.syncs != 3 {
		t.Fatalf("wal state = %d records, lastSeq %d, syncs %d", w.records, w.lastSeq, w.syncs)
	}

	// Partial compaction keeps the tail records.
	if err := w.compactTo(3); err != nil {
		t.Fatal(err)
	}
	if w.records != 1 || w.lastSeq != 5 {
		t.Fatalf("after compactTo(3): %d records, lastSeq %d; want 1, 5", w.records, w.lastSeq)
	}
	// Appends still work on the rewritten file.
	if err := w.append(kcore.AppliedBatch{Seq: 6, Updates: []kcore.Update{kcore.Add(9, 10)}}); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if _, _, err := ScanWALFile(path, func(rec kcore.AppliedBatch) error {
		seqs = append(seqs, rec.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 5 || seqs[1] != 6 {
		t.Fatalf("post-compaction records = %v, want [5 6]", seqs)
	}

	// Full compaction truncates in place; the next append chains onto the
	// compacted-to seq.
	if err := w.compactTo(6); err != nil {
		t.Fatal(err)
	}
	if w.records != 0 || w.size != walHeaderLen {
		t.Fatalf("after full compaction: %d records, %d bytes", w.records, w.size)
	}
	if err := w.append(kcore.AppliedBatch{Seq: 7, Updates: []kcore.Update{kcore.Add(1, 3)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != w.size {
		t.Fatalf("file size %d, wal thinks %d", st.Size(), w.size)
	}
}
