package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// FuzzBatchResponseJSON: AppendBatchResponseJSON writes exactly the bytes
// json.NewEncoder(w).Encode writes for a BatchResponse, omitempty fields and
// trailing newline included, for any field values, and it appends without
// touching what the buffer already holds. changed supplies CoreChanged, 8
// bytes per vertex; when it is shorter than that, emptyChanged picks an
// empty slice over nil.
func FuzzBatchResponseJSON(f *testing.F) {
	f.Add(uint64(0), 0, 0, false, 0, []byte(nil), false, 0, []byte(nil))
	f.Add(uint64(12), 100, 2, false, 1, []byte{}, true, 117, []byte("prefix"))
	f.Add(uint64(math.MaxUint64), -1, math.MinInt, true, math.MaxInt, binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, 7), uint64(1)<<63), false, -5, []byte{0})
	f.Fuzz(func(t *testing.T, seq uint64, applied, coalesced int, recomputed bool, flushedWith int,
		changed []byte, emptyChanged bool, visited int, prefix []byte) {
		r := BatchResponse{Seq: seq, Applied: applied, Coalesced: coalesced, Recomputed: recomputed,
			FlushedWith: flushedWith, Visited: visited}
		if emptyChanged {
			r.CoreChanged = []int{}
		}
		for ; len(changed) >= 8; changed = changed[8:] {
			r.CoreChanged = append(r.CoreChanged, int(binary.LittleEndian.Uint64(changed)))
		}
		var want bytes.Buffer
		want.Write(prefix)
		if err := json.NewEncoder(&want).Encode(&r); err != nil {
			t.Fatal(err)
		}
		if got := AppendBatchResponseJSON(append([]byte(nil), prefix...), &r); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendBatchResponseJSON(%+v) = %q, want %q", r, got, want.Bytes())
		}
	})
}
