package wire

import (
	"math"
	"strconv"

	"kcore"
)

// DecodeBatchJSON decodes a POST /v1/batch JSON body in its common form —
// the one every client in this repository writes,
//
//	{"updates":[{"op":"add","u":1,"v":2},…]}
//
// — straight into dst[:0], and reports whether body had that form. The
// common form allows any JSON whitespace and any key order, but requires the
// exact lowercase keys "updates", "op", "u" and "v", each exactly once, op
// "add" or "remove" written without escapes, u and v integers in JSON
// grammar that fit in an int, and nothing but whitespace after the closing
// brace. For any other body it returns false, and the caller decodes the
// body with encoding/json instead: whatever DecodeBatchJSON accepts,
// encoding/json decodes to the same updates, so the two paths give one
// result. The returned slice reuses dst's storage on both outcomes, and a
// common-form body allocates nothing once dst has the capacity.
func DecodeBatchJSON(body []byte, dst []kcore.Update) ([]kcore.Update, bool) {
	dst = dst[:0]
	s := jsonScan{b: body}
	if !s.next('{') || !s.key("updates") || !s.next('[') {
		return dst, false
	}
	if !s.next(']') {
		for {
			u, ok := s.update()
			if !ok {
				return dst, false
			}
			dst = append(dst, u)
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return dst, false
			}
		}
	}
	if !s.next('}') {
		return dst, false
	}
	s.skip()
	return dst, s.i == len(s.b)
}

// jsonScan is DecodeBatchJSON's cursor over the body.
type jsonScan struct {
	b []byte
	i int
}

// skip advances past JSON whitespace.
func (s *jsonScan) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *jsonScan) next(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string and returns the raw bytes between its quotes. It
// stops at the first quote, escaped or not, so a string holding a
// backslash never equals the plain names its callers compare it with.
func (s *jsonScan) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		if s.b[j] == '"' {
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		}
	}
	return nil, false
}

// key consumes the object key name and its colon.
func (s *jsonScan) key(name string) bool {
	k, ok := s.str()
	return ok && string(k) == name && s.next(':')
}

// int consumes a JSON integer (no fraction, no exponent, no leading zero)
// that fits in an int.
func (s *jsonScan) int() (int, bool) {
	s.skip()
	i := s.i
	neg := i < len(s.b) && s.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(s.b) && s.b[i]-'0' <= 9; i++ {
		n = n*10 + uint64(s.b[i]-'0')
	}
	digits := i - start
	// 19 digits cannot overflow n; they can still exceed an int.
	if digits == 0 || digits > 19 || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	s.i = i
	if neg {
		if n > uint64(math.MaxInt)+1 {
			return 0, false
		}
		return int(-n), true
	}
	if n > math.MaxInt {
		return 0, false
	}
	return int(n), true
}

// update consumes one {"op":…,"u":…,"v":…} object, its three keys in any
// order and each exactly once.
func (s *jsonScan) update() (kcore.Update, bool) {
	var u kcore.Update
	if !s.next('{') {
		return u, false
	}
	var seen uint8
	for m := 0; m < 3; m++ {
		if m > 0 && !s.next(',') {
			return u, false
		}
		k, ok := s.str()
		if !ok || !s.next(':') {
			return u, false
		}
		var bit uint8
		switch string(k) {
		case "op":
			bit = 1
			var op []byte
			if op, ok = s.str(); ok {
				switch string(op) {
				case OpAdd:
					u.Op = kcore.OpAdd
				case OpRemove:
					u.Op = kcore.OpRemove
				default:
					ok = false
				}
			}
		case "u":
			bit = 2
			u.U, ok = s.int()
		case "v":
			bit = 4
			u.V, ok = s.int()
		default:
			return u, false
		}
		if !ok || seen&bit != 0 {
			return u, false
		}
		seen |= bit
	}
	return u, s.next('}')
}

// AppendBatchResponseJSON appends r as the bytes json.NewEncoder(w).Encode(r)
// writes: the JSON object with its omitempty fields left out when zero, then
// a newline.
func AppendBatchResponseJSON(buf []byte, r *BatchResponse) []byte {
	buf = strconv.AppendUint(append(buf, `{"seq":`...), r.Seq, 10)
	buf = strconv.AppendInt(append(buf, `,"applied":`...), int64(r.Applied), 10)
	buf = strconv.AppendInt(append(buf, `,"coalesced":`...), int64(r.Coalesced), 10)
	if r.Recomputed {
		buf = append(buf, `,"recomputed":true`...)
	}
	buf = strconv.AppendInt(append(buf, `,"flushed_with":`...), int64(r.FlushedWith), 10)
	if len(r.CoreChanged) > 0 {
		buf = append(buf, `,"core_changed":[`...)
		for i, v := range r.CoreChanged {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		buf = append(buf, ']')
	}
	if r.Visited != 0 {
		buf = strconv.AppendInt(append(buf, `,"visited":`...), int64(r.Visited), 10)
	}
	return append(buf, "}\n"...)
}
