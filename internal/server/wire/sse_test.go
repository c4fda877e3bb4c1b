package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// FuzzChangeSSE: AppendChangeSSE writes exactly the bytes encoding/json
// produces for a ChangeEvent, in the SSE framing of a "change" event, for
// any non-negative vertex and core numbers and any sequence number, and it
// appends without touching what the buffer already holds.
func FuzzChangeSSE(f *testing.F) {
	f.Add(0, 0, 0, uint64(0), []byte(nil))
	f.Add(7, 1, 2, uint64(11), []byte("prefix"))
	f.Add(math.MaxInt, math.MaxInt32, 0, uint64(math.MaxUint64), []byte{})
	f.Fuzz(func(t *testing.T, vertex, oldCore, newCore int, seq uint64, prefix []byte) {
		if vertex < 0 || oldCore < 0 || newCore < 0 {
			t.Skip()
		}
		c := ChangeEvent{Vertex: vertex, OldCore: oldCore, NewCore: newCore, Seq: seq}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%sevent: change\ndata: %s\n\n", prefix, data)
		if got := AppendChangeSSE(append([]byte(nil), prefix...), c); string(got) != want {
			t.Fatalf("AppendChangeSSE(%+v) = %q, want %q", c, got, want)
		}
	})
}
