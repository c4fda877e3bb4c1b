package persist

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"kcore"
)

// streamBytes builds a WAL byte stream: header + one frame per record.
func streamBytes(t *testing.T, recs []kcore.AppliedBatch) []byte {
	t.Helper()
	buf := AppendWALHeader(nil)
	for _, rec := range recs {
		b, err := AppendWALFrame(buf, rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	}
	return buf
}

var streamRecs = []kcore.AppliedBatch{
	{Seq: 2, Updates: []kcore.Update{kcore.Add(0, 1), kcore.Add(1, 2)}},
	{Seq: 3, Updates: []kcore.Update{kcore.Remove(0, 1)}},
	{Seq: 6, Updates: []kcore.Update{kcore.Add(0, 1), kcore.Add(0, 2), kcore.Add(3, 4)}},
}

// TestWALReaderStream: the streaming reader decodes a full stream record by
// record and ends with a clean io.EOF — also through a one-byte-at-a-time
// reader, the worst case a network connection can deliver.
func TestWALReaderStream(t *testing.T) {
	data := streamBytes(t, streamRecs)
	for _, tc := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(data)},
		{"one-byte-reads", iotest.OneByteReader(bytes.NewReader(data))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wr := NewWALReader(tc.r)
			for i, want := range streamRecs {
				rec, err := wr.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if rec.Seq != want.Seq || len(rec.Updates) != len(want.Updates) {
					t.Fatalf("record %d = %+v, want %+v", i, rec, want)
				}
				for j := range want.Updates {
					if rec.Updates[j] != want.Updates[j] {
						t.Fatalf("record %d update %d = %+v, want %+v", i, j, rec.Updates[j], want.Updates[j])
					}
				}
			}
			if _, err := wr.Next(); err != io.EOF {
				t.Fatalf("end of stream: %v, want io.EOF", err)
			}
			if wr.Records() != 3 || wr.LastSeq() != 6 || wr.Offset() != int64(len(data)) {
				t.Fatalf("reader state: records=%d lastSeq=%d off=%d", wr.Records(), wr.LastSeq(), wr.Offset())
			}
		})
	}
}

// TestWALReaderTorn: every truncation point inside a record (or the header)
// yields io.ErrUnexpectedEOF with the torn size, while truncation at a
// record boundary is a clean EOF.
func TestWALReaderTorn(t *testing.T) {
	data := streamBytes(t, streamRecs)
	// 0 is a boundary too: a zero-length stream is a valid empty WAL.
	boundaries := map[int]bool{0: true, len(data): true}
	{
		wr := NewWALReader(bytes.NewReader(data))
		for {
			if _, err := wr.Next(); err != nil {
				break
			}
			boundaries[int(wr.Offset())] = true
		}
		boundaries[walHeaderLen] = true
	}
	for cut := 0; cut < len(data); cut++ {
		wr := NewWALReader(bytes.NewReader(data[:cut]))
		var err error
		for err == nil {
			_, err = wr.Next()
		}
		if boundaries[cut] {
			if err != io.EOF {
				t.Fatalf("cut %d (boundary): %v, want io.EOF", cut, err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if wr.Offset()+wr.Torn() != int64(cut) {
			t.Fatalf("cut %d: off %d + torn %d != cut", cut, wr.Offset(), wr.Torn())
		}
	}
}

// TestWALReaderCorruption: malformations are structured ErrCorruptWAL
// errors — never torn tails, never panics.
func TestWALReaderCorruption(t *testing.T) {
	good := streamBytes(t, streamRecs)
	flipCRC := bytes.Clone(good)
	flipCRC[len(flipCRC)-1] ^= 0xff // payload bit flip: CRC mismatch
	badMagic := bytes.Clone(good)
	badMagic[0] = 'X'
	badVersion := bytes.Clone(good)
	badVersion[8] = 99
	regressed := streamBytes(t, []kcore.AppliedBatch{
		{Seq: 5, Updates: []kcore.Update{kcore.Add(0, 1)}},
		{Seq: 4, Updates: []kcore.Update{kcore.Add(1, 2)}},
	})
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"crc", flipCRC},
		{"magic", badMagic},
		{"version", badVersion},
		{"seq-regression", regressed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wr := NewWALReader(bytes.NewReader(tc.data))
			var err error
			for err == nil {
				_, err = wr.Next()
			}
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("err = %v, want ErrCorruptWAL", err)
			}
		})
	}
}

// TestWALReaderTransportError: a reader failing with a real I/O error (not
// EOF) surfaces that error, distinguishable from corruption — a follower
// must treat it as reconnectable, not as a poisoned stream.
func TestWALReaderTransportError(t *testing.T) {
	boom := errors.New("connection reset")
	data := streamBytes(t, streamRecs)
	wr := NewWALReader(io.MultiReader(bytes.NewReader(data[:len(data)-4]), iotest.ErrReader(boom)))
	var err error
	for err == nil {
		_, err = wr.Next()
	}
	if !errors.Is(err, boom) || errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("err = %v, want the transport error and not ErrCorruptWAL", err)
	}
}

// TestAppendWALFrameRejects: records the format cannot represent fail at
// encode time.
func TestAppendWALFrameRejects(t *testing.T) {
	if _, err := AppendWALFrame(nil, kcore.AppliedBatch{Seq: 1}); err == nil {
		t.Fatal("empty record must not encode")
	}
	if _, err := AppendWALFrame(nil, kcore.AppliedBatch{Seq: 1, Updates: []kcore.Update{kcore.Add(-1, 2)}}); err == nil {
		t.Fatal("negative vertex must not encode")
	}
}
