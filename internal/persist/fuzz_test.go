package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"kcore"
)

// fuzzSeedSnapshot builds a small valid snapshot for the seed corpus.
func fuzzSeedSnapshot(tb testing.TB) []byte {
	tb.Helper()
	e, err := kcore.FromEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		tb.Fatal(err)
	}
	st := e.Index()
	data, err := EncodeSnapshot(st)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzSeedWAL builds a small valid WAL byte stream for the seed corpus.
func fuzzSeedWAL(tb testing.TB) []byte {
	tb.Helper()
	buf := append([]byte(nil), walMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, WALVersion)
	var err error
	buf, err = AppendWALFrame(buf, kcore.AppliedBatch{Seq: 3,
		Updates: []kcore.Update{kcore.Add(0, 1), kcore.Add(1, 2), kcore.Add(0, 2)}})
	if err != nil {
		tb.Fatal(err)
	}
	buf, err = AppendWALFrame(buf, kcore.AppliedBatch{Seq: 5,
		Updates: []kcore.Update{kcore.Remove(0, 1), kcore.Add(2, 3)}})
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// FuzzSnapshotLoad: arbitrary snapshot bytes must either load a fully
// verified engine or fail with ErrCorruptSnapshot — never panic, never
// produce silently-wrong state.
func FuzzSnapshotLoad(f *testing.F) {
	valid := fuzzSeedSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])              // truncated
	f.Add(append([]byte(nil), valid[4:]...)) // missing magic prefix
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped) // payload bit flip
	f.Add([]byte{})
	f.Add([]byte("KCORSNAP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("non-structured snapshot error: %v", err)
			}
			return
		}
		// Accepted: the engine must be fully consistent — the load
		// verification promises exactly this.
		if err := e.Validate(); err != nil {
			t.Fatalf("snapshot loaded silently-wrong state: %v", err)
		}
	})
}

// FuzzWALReplay: arbitrary WAL bytes replayed into a fresh engine must
// either recover cleanly (with at most a torn tail) or fail with
// ErrCorruptWAL — never panic, never leave inconsistent state.
func FuzzWALReplay(f *testing.F) {
	valid := fuzzSeedWAL(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:walHeaderLen])
	flipped := append([]byte(nil), valid...)
	flipped[walHeaderLen+walFrameLen+1] ^= 0x04
	f.Add(flipped) // corrupt first record payload
	f.Add([]byte{})
	f.Add([]byte("KCOREWAL"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := kcore.NewEngine()
		res, replayed, err := replayWAL(e, bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("non-structured WAL error: %v", err)
			}
			return
		}
		if res.goodOffset+res.tornBytes > int64(len(data)) {
			t.Fatalf("scan accounted %d+%d bytes of %d",
				res.goodOffset, res.tornBytes, len(data))
		}
		if replayed > 0 {
			if err := e.Validate(); err != nil {
				t.Fatalf("WAL replay left inconsistent state: %v", err)
			}
		}
	})
}
