package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/server/wire"
)

// commonFormBody is a body wire.DecodeBatchJSON must accept, with the
// updates it must decode it to.
type commonFormBody struct {
	name string
	body []byte
	want []kcore.Update
}

func commonFormBodies(t testing.TB) []commonFormBody {
	req := wire.BatchRequest{Updates: []wire.Update{
		{Op: wire.OpAdd, U: 0, V: 1}, {Op: wire.OpRemove, U: 7, V: 123456789}, {Op: wire.OpAdd, U: 2, V: 0},
	}}
	want := []kcore.Update{kcore.Add(0, 1), kcore.Remove(7, 123456789), kcore.Add(2, 0)}
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(req, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return []commonFormBody{
		{"json.Marshal", compact, want},
		{"json.MarshalIndent", indented, want},
		{"reordered keys", []byte(`{"updates":[{"v":1,"op":"add","u":0},{"u":7,"v":123456789,"op":"remove"},{"op":"add","v":0,"u":2}]}`), want},
		{"CRLF whitespace", []byte("\r\n{\r\n\t\"updates\" :\r\n[ { \"op\" :\t\"add\" ,\r\n\"u\": 0 , \"v\":1 } ,{\"op\":\"remove\",\"u\":7,\"v\":123456789},\r\n" +
			"{\"op\":\"add\",\"u\":2,\"v\":0}\r\n]\r\n}\r\n"), want},
		{"empty updates", []byte(`{"updates":[]}`), nil},
		{"negative ids", []byte(fmt.Sprintf(`{"updates":[{"op":"add","u":-1,"v":%d},{"op":"remove","u":%d,"v":-42}]}`, math.MinInt, math.MaxInt)),
			[]kcore.Update{kcore.Add(-1, math.MinInt), kcore.Remove(math.MaxInt, -42)}},
		{"minus zero", []byte(`{"updates":[{"op":"remove","u":-0,"v":0}]}`), []kcore.Update{kcore.Remove(0, 0)}},
	}
}

// moreFallbackBodies are bodies outside the common form, beyond the ones
// batchBodyCases sends to the server.
var moreFallbackBodies = []string{
	``,
	`[]`,
	`{"updates":[{"op":"add","u":1}]}`,
	`{"updates":[{"op":"add","u":1,"v":2,"u":3}]}`,
	`{"updates":[{"op":"add","u":"1","v":2}]}`,
	`{"updates":[{"op":"add","u":1,"v":2},]}`,
	`{"updates":[{"op":"add","u":-,"v":2}]}`,
	`{"updates":[{"op":"add","u":-01,"v":2}]}`,
	`{"updates":[{"op":"add","u":1,"v":-9223372036854775809}]}`,
	`{"updates":[{"op":"add","u":1,"v":18446744073709551616}]}`,
	`{"updates":[{"op":"Add","u":1,"v":2}]}`,
	`{"updates":[{"op":"add\"","u":1,"v":2}]}`,
	`{"updates":{"op":"add","u":1,"v":2}}`,
	`{"updates":[{"op":"add","u":1,"v":2}],"updates":[]}`,
	`{"updates":[{"op":"add","u":1,"v":2}]}}`,
	`{"updates":[{"op":"add","u":1,"v":2}]}` + "\x00",
	`{"updates" [{"op":"add","u":1,"v":2}]}`,
	`{"updates":[{"op":"add","u":1,"v":2}]}` + "\xc2\xa0",
	"{\"updates\":[{\"op\":\"add\",\"u\":1,\"v\":2}]}\f",
}

// referenceDecode is the server's path for a body outside the common form:
// encoding/json, then toBatch.
func referenceDecode(body []byte) (kcore.Batch, error) {
	var req wire.BatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	batch, werr := toBatch(req.Updates)
	if werr != nil {
		return nil, werr
	}
	return batch, nil
}

func TestDecodeBatchJSONCommonForm(t *testing.T) {
	for _, tc := range commonFormBodies(t) {
		stale := []kcore.Update{kcore.Add(99, 98), kcore.Add(97, 96)}
		got, ok := wire.DecodeBatchJSON(tc.body, stale)
		if !ok || !slices.Equal(got, tc.want) {
			t.Errorf("%s: DecodeBatchJSON = %v, %v; want %v, true", tc.name, got, ok, tc.want)
		}
		ref, err := referenceDecode(tc.body)
		if err != nil || !slices.Equal(ref, tc.want) {
			t.Errorf("%s: encoding/json + toBatch = %v, %v; want %v", tc.name, ref, err, tc.want)
		}
	}
	for _, tc := range batchBodyCases {
		if _, ok := wire.DecodeBatchJSON([]byte(tc.body), nil); ok != tc.common {
			t.Errorf("%s: DecodeBatchJSON accepted = %v, want %v", tc.name, ok, tc.common)
		}
	}
}

func TestDecodeBatchJSONFallsBack(t *testing.T) {
	for _, body := range moreFallbackBodies {
		if got, ok := wire.DecodeBatchJSON([]byte(body), nil); ok {
			t.Errorf("DecodeBatchJSON(%q) = %v, true; want false", body, got)
		}
	}
	// Every proper prefix of a common-form body is truncated.
	body := commonFormBodies(t)[0].body
	for n := range body {
		if got, ok := wire.DecodeBatchJSON(body[:n], nil); ok {
			t.Errorf("DecodeBatchJSON(%q) = %v, true; want false", body[:n], got)
		}
	}
}

func TestDecodeBatchJSONZeroAllocs(t *testing.T) {
	updates := make([]wire.Update, 100)
	for i := range updates {
		updates[i] = wire.Update{Op: wire.OpAdd, U: i * 1000, V: i*1000 + 1}
		if i%3 == 0 {
			updates[i].Op = wire.OpRemove
		}
	}
	body, err := json.Marshal(wire.BatchRequest{Updates: updates})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]kcore.Update, 0, len(updates))
	allocs := testing.AllocsPerRun(100, func() {
		var ok bool
		if dst, ok = wire.DecodeBatchJSON(body, dst); !ok || len(dst) != len(updates) {
			t.Fatal("common-form body rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeBatchJSON allocated %.1f times per 100-update body, want 0", allocs)
	}
}

// FuzzJSONBatchDecode: whatever body wire.DecodeBatchJSON accepts,
// encoding/json plus toBatch (the server's path for every other body) also
// accepts and decodes to the same updates, so which path a body takes never
// changes its outcome.
func FuzzJSONBatchDecode(f *testing.F) {
	for _, tc := range commonFormBodies(f) {
		f.Add(tc.body)
	}
	for _, tc := range batchBodyCases {
		f.Add([]byte(tc.body))
	}
	for _, body := range moreFallbackBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := wire.DecodeBatchJSON(body, make([]kcore.Update, 2, 4))
		if !ok {
			return
		}
		want, err := referenceDecode(body)
		if err != nil {
			t.Fatalf("DecodeBatchJSON accepted %q, encoding/json + toBatch rejected it: %v", body, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("DecodeBatchJSON(%q) = %v, encoding/json + toBatch = %v", body, got, want)
		}
	})
}
