package server

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// encoding/json defines the protocol: which bodies are valid, what they decode
// to, every error message, how a reply renders. This file is its reflection-free
// equal for the two shapes a served load is made of — the compact request every
// client in the repository emits and the 200 reply; anything else goes to
// encoding/json itself. FuzzParseRequest and TestOKReplyMatchesEncodingJSON
// hold the two to that.

// parse decodes and validates body into req, reusing the memory of req.Ops.
func parse(req *TxnRequest, body []byte) error {
	if ops, ok := decodeCompact(req.Ops, body); ok {
		req.Ops = ops // the compact form admits nothing validate refuses
		return nil
	}
	// encoding/json decodes into what a slice already holds between its
	// length and its capacity, without clearing it: an earlier request's
	// fields would show through the members this body leaves out.
	req.Ops = nil
	if err := json.Unmarshal(body, req); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return validate(req)
}

// decodeCompact decodes body into ops[:0] when body is, byte for byte, the
// form json.Marshal gives a valid TxnRequest:
//
//	{"ops":[{"op":"add","table":"kv","key":1,"val":2},...]}
//
// with the members of an op in any order, each at most once, "op" one of the
// five verbs, "table" non-empty printable ASCII without escapes, "key" at
// most 19 digits and "val" at most 18 (so neither can overflow). It reports
// false on everything else — white space, another spelling of a name, an
// unknown or repeated member, a fraction, an exponent, a leading zero, an
// empty list, trailing bytes — and has no opinion on whether that is valid.
func decodeCompact(ops []Op, body []byte) ([]Op, bool) {
	c := cursor{b: body}
	if !c.lit(`{"ops":[`) {
		return ops, false
	}
	ops = ops[:0]
	for {
		var op Op
		if !c.op(&op, ops) {
			return ops, false
		}
		ops = append(ops, op)
		if !c.lit(",") {
			break
		}
	}
	return ops, c.lit("]}") && c.i == len(c.b)
}

// cursor is a position in a request body.
type cursor struct {
	b []byte
	i int
}

// lit consumes s if the body continues with it.
func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// str consumes a string of printable ASCII without escapes and returns the
// bytes between its quotes.
func (c *cursor) str() ([]byte, bool) {
	if !c.lit(`"`) {
		return nil, false
	}
	for start := c.i; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1], true
		case ch < ' ' || ch > '~' || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// digits consumes a JSON integer without sign of at most limit digits.
func (c *cursor) digits(limit int) (v uint64, ok bool) {
	start := c.i
	for c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
		v = v*10 + uint64(c.b[c.i]-'0')
		c.i++
	}
	n := c.i - start
	return v, n > 0 && n <= limit && (n == 1 || c.b[start] != '0')
}

// op consumes one op object into op; ops holds the ops decoded before it.
func (c *cursor) op(op *Op, ops []Op) bool {
	const (
		sawOp = 1 << iota
		sawTable
		sawKey
		sawVal
	)
	if !c.lit("{") {
		return false
	}
	seen := 0
	for {
		name, ok := c.str()
		if !ok || !c.lit(":") {
			return false
		}
		var member int
		switch string(name) {
		case "op":
			member = sawOp
			var verb []byte
			verb, ok = c.str()
			op.Op = knownVerb(verb)
			ok = ok && op.Op != ""
		case "table":
			member = sawTable
			var table []byte
			table, ok = c.str()
			ok = ok && len(table) > 0
			op.Table = tableName(table, ops)
		case "key":
			member = sawKey
			op.Key, ok = c.digits(19)
		case "val":
			member = sawVal
			neg := c.lit("-")
			var v uint64
			v, ok = c.digits(18)
			if op.Val = int64(v); neg {
				op.Val = -op.Val
			}
		}
		if !ok || member == 0 || seen&member != 0 {
			return false
		}
		seen |= member
		if !c.lit(",") {
			break
		}
	}
	return c.lit("}") && seen&sawOp != 0 && seen&sawTable != 0
}

// knownVerb returns the verb b spells, or "".
func knownVerb(b []byte) string {
	for _, verb := range [...]string{"get", "put", "insert", "add", "delete"} {
		if verb == string(b) {
			return verb
		}
	}
	return ""
}

// tableName returns b as a string. A stream of requests names the same few
// tables over and over, so the string is taken from the op that held this
// place in the list the last time its memory was used, or from the op before
// this one, when either spells the same name; only a new name is allocated.
func tableName(b []byte, ops []Op) string {
	n := len(ops)
	if n < cap(ops) {
		if last := ops[:n+1][n].Table; last == string(b) {
			return last
		}
	}
	if n > 0 && ops[n-1].Table == string(b) {
		return ops[n-1].Table
	}
	return string(b)
}

// appendOK appends the 200 reply exactly as json.NewEncoder renders the
// TxnResponse of a commit: results left out when empty, replayed when false,
// a newline at the end.
func appendOK(dst []byte, results []OpResult, digest uint64, replayed bool) []byte {
	dst = append(dst, `{"outcome":"ok"`...)
	if len(results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i, r := range results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"val":`...)
			dst = strconv.AppendInt(dst, r.Val, 10)
			dst = append(dst, `,"found":`...)
			dst = strconv.AppendBool(dst, r.Found)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"digest":"`...)
	dst = appendDigest(dst, digest)
	dst = append(dst, '"')
	if replayed {
		dst = append(dst, `,"replayed":true`...)
	}
	return append(dst, "}\n"...)
}

// appendDigest appends d as fmt's %016x does.
func appendDigest(dst []byte, d uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[d>>shift&15])
	}
	return dst
}
