package replicate

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"kcore"
	"kcore/internal/persist"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden stream fixture")

// goldenStream is the fixed replication stream both the golden fixture and
// the fuzz seeds derive from: a snapshot bootstrap followed by two live
// frames. Do not change it — the fixture pins the byte format.
func goldenStream(tb testing.TB) []byte {
	tb.Helper()
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}
	e, err := kcore.FromEdges(edges)
	if err != nil {
		tb.Fatal(err)
	}
	st := e.Index()
	snap, err := persist.EncodeSnapshot(st)
	if err != nil {
		tb.Fatal(err)
	}
	buf := AppendBootstrap(nil, snap)
	buf = persist.AppendWALHeader(buf)
	for _, rec := range []kcore.AppliedBatch{
		{Seq: 2, Updates: []kcore.Update{kcore.Add(3, 4), kcore.Add(4, 300)}},
		{Seq: 3, Updates: []kcore.Update{kcore.Remove(2, 3)}},
	} {
		buf, err = persist.AppendWALFrame(buf, rec)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

// TestStreamGolden pins the replication stream byte format: the fixture may
// only change together with a StreamVersion bump.
func TestStreamGolden(t *testing.T) {
	got := goldenStream(t)
	path := filepath.Join("testdata", "golden", "stream_v1.bin")
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
		t.Fatalf("missing golden fixture (run 'go test ./internal/replicate -run Golden -update'): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream_v1.bin: encoding changed (%d bytes, golden %d).\n"+
			"The wire format is pinned: a running fleet streams it between versions. "+
			"If this change is intentional, bump StreamVersion (followers reject "+
			"unknown versions and re-bootstrap after an upgrade) and regenerate "+
			"with -update.", len(got), len(want))
	}

	// The fixture must round-trip through the follower-side decoders.
	r := bytes.NewReader(want)
	snap, err := ReadBootstrap(r)
	if err != nil || snap == nil {
		t.Fatalf("golden bootstrap: snap=%v err=%v", snap != nil, err)
	}
	if _, err := persist.DecodeSnapshot(snap); err != nil {
		t.Fatalf("golden snapshot decode: %v", err)
	}
	wr := persist.NewWALReader(r)
	var seqs []uint64
	for {
		rec, err := wr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("golden frame decode: %v", err)
		}
		seqs = append(seqs, rec.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 3 {
		t.Fatalf("golden frames decoded to seqs %v, want [2 3]", seqs)
	}
}

// TestStreamVersionPinned trips when StreamVersion changes without the
// golden fixture (and the follower's version handling) being revisited.
func TestStreamVersionPinned(t *testing.T) {
	if StreamVersion != 1 {
		t.Fatalf("StreamVersion = %d; this tripwire pins 1. Bumping it is allowed "+
			"only together with a new golden fixture and a follower story for the "+
			"old version (diskless followers re-bootstrap, so refusing it is fine "+
			"— but make that choice deliberately, then update this test)", StreamVersion)
	}
}

// FuzzStreamDecode throws arbitrary bytes at the follower's stream decoding
// path: the bootstrap reader, the snapshot decoder, and the WAL frame
// reader. Every outcome must be a structured error — never a panic, never
// an unclassified failure.
func FuzzStreamDecode(f *testing.F) {
	golden := goldenStream(f)
	f.Add(golden)
	f.Add(golden[:streamHeaderLen])                           // bootstrap only, cut before snapshot
	f.Add(golden[:streamHeaderLen+2])                         // cut inside the snapshot length
	f.Add(golden[:len(golden)-3])                             // cut inside the last frame
	f.Add(AppendBootstrap(nil, nil))                          // resume bootstrap, no stream
	f.Add(persist.AppendWALHeader(AppendBootstrap(nil, nil))) // resume + empty WAL
	bad := append([]byte(nil), golden...)
	bad[3] ^= 0xff // break the magic
	f.Add(bad)
	flip := append([]byte(nil), golden...)
	flip[len(flip)-1] ^= 0xff // break the last frame's payload
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		snap, err := ReadBootstrap(r)
		if err != nil {
			if !errors.Is(err, ErrBadStream) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("bootstrap error is unstructured: %v", err)
			}
			return
		}
		if snap != nil {
			// Must not panic; a decode error is fine (the follower rejects
			// the bootstrap and reconnects).
			_, _ = persist.DecodeSnapshot(snap)
		}
		wr := persist.NewWALReader(r)
		for {
			if _, err := wr.Next(); err != nil {
				if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) ||
					errors.Is(err, persist.ErrCorruptWAL) {
					return
				}
				t.Fatalf("stream error is unstructured: %v", err)
			}
		}
	})
}
