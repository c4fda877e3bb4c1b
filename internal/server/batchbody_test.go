package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"kcore"
	"kcore/internal/server/wire"
)

// batchBodyCases are POST /v1/batch JSON bodies with the outcome each must
// get, sent in order to one empty engine with MaxBatch 4. The common bodies
// are in the form every client in this repository writes; every other body
// is one of the shapes outside it: escapes, case-folded, unknown or
// duplicate keys, ids that are no JSON integer or overflow an int, null,
// a byte order mark, trailing bytes, truncation. seq is the engine seq after
// the request; index is the error's Index, or -1 where the error has none.
var batchBodyCases = []struct {
	name   string
	body   string
	common bool
	status int
	code   string
	index  int
	seq    uint64
}{
	{"compact", `{"updates":[{"op":"add","u":0,"v":1},{"op":"add","u":1,"v":2}]}`, true, 200, "", -1, 2},
	{"indented", "{\n  \"updates\": [\n    {\n      \"op\": \"add\",\n      \"u\": 2,\n      \"v\": 3\n    }\n  ]\n}",
		true, 200, "", -1, 3},
	{"empty updates", `{"updates":[]}`, true, 400, wire.CodeBadRequest, -1, 3},
	{"too large", `{"updates":[{"op":"add","u":30,"v":31},{"op":"add","u":31,"v":32},{"op":"add","u":32,"v":33},` +
		`{"op":"add","u":33,"v":34},{"op":"add","u":34,"v":35}]}`, true, 413, wire.CodeBatchTooLarge, -1, 3},
	{"self loop", `{"updates":[{"op":"add","u":20,"v":21},{"op":"add","u":22,"v":22}]}`, true, 422, wire.CodeSelfLoop, 1, 3},
	{"escaped op", `{"updates":[{"op":"\u0061dd","u":10,"v":11}]}`, false, 200, "", -1, 4},
	{"upper-case keys", `{"UPDATES":[{"OP":"add","U":12,"V":13}]}`, false, 200, "", -1, 5},
	{"unknown nested key", `{"updates":[{"op":"add","u":14,"v":15,"meta":{"tags":["x",{"y":null}],"w":1.5}}],"trace":[1,{"a":true}]}`,
		false, 200, "", -1, 6},
	{"duplicate key", `{"updates":[{"op":"remove","u":16,"v":17,"op":"add"}]}`, false, 200, "", -1, 7},
	{"duplicate updates", `{"updates":[{"op":"add","u":0,"v":1}],"updates":[{"op":"add","u":18,"v":19}]}`, false, 200, "", -1, 8},
	{"fraction id", `{"updates":[{"op":"add","u":1.0,"v":40}]}`, false, 400, wire.CodeBadRequest, -1, 8},
	{"exponent id", `{"updates":[{"op":"add","u":1e2,"v":40}]}`, false, 400, wire.CodeBadRequest, -1, 8},
	{"leading zero id", `{"updates":[{"op":"add","u":01,"v":40}]}`, false, 400, wire.CodeBadRequest, -1, 8},
	{"id 2^63", `{"updates":[{"op":"add","u":9223372036854775808,"v":40}]}`, false, 400, wire.CodeBadRequest, -1, 8},
	{"null updates", `{"updates":null}`, false, 400, wire.CodeBadRequest, -1, 8},
	{"empty object", `{}`, false, 400, wire.CodeBadRequest, -1, 8},
	{"byte order mark", "\xef\xbb\xbf" + `{"updates":[{"op":"add","u":40,"v":41}]}`, false, 400, wire.CodeBadRequest, -1, 8},
	{"trailing bytes", `{"updates":[{"op":"add","u":24,"v":25}]} and more`, false, 200, "", -1, 9},
	{"truncated", `{"updates":[{"op":"add","u":40,"v":`, false, 400, wire.CodeBadRequest, -1, 9},
	{"unknown op", `{"updates":[{"op":"add","u":40,"v":41},{"op":"toggle","u":41,"v":42}]}`, false, 400, wire.CodeBadRequest, 1, 9},
}

// TestBatchBodyOutcomes pins what POST /v1/batch answers for each body in
// batchBodyCases: the HTTP status, the wire error code and Index, and
// whether the engine applied anything.
func TestBatchBodyOutcomes(t *testing.T) {
	e := kcore.NewEngine()
	_, c := newTestServer(t, e, Options{MaxBatch: 4})
	for _, tc := range batchBodyCases {
		resp, err := c.hc.Post(c.base+"/v1/batch", wire.ContentTypeJSON, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var envelope wire.ErrorResponse
		decodeErr := json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if tc.status != http.StatusOK {
			switch {
			case decodeErr != nil || envelope.Error == nil:
				t.Errorf("%s: no error envelope (%v)", tc.name, decodeErr)
			case envelope.Error.Code != tc.code:
				t.Errorf("%s: code %q, want %q", tc.name, envelope.Error.Code, tc.code)
			case tc.index < 0 && envelope.Error.Index != nil:
				t.Errorf("%s: index %d, want none", tc.name, *envelope.Error.Index)
			case tc.index >= 0 && (envelope.Error.Index == nil || *envelope.Error.Index != tc.index):
				t.Errorf("%s: index %v, want %d", tc.name, envelope.Error.Index, tc.index)
			}
		}
		if seq := e.Seq(); seq != tc.seq {
			t.Errorf("%s: engine seq %d, want %d", tc.name, seq, tc.seq)
		}
	}
}
