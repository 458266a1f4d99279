package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestRepliesMatchRecordedParent replays a fixed conversation — every verb,
// a miss, a multi-op request, a replay, the read endpoint and four refusals —
// and compares status, content type and body with what the handler answered
// while encoding/json rendered every reply: testdata/parent_replies.txt is
// this test's own output at f2019a4, the last commit before the codec, and is
// not to be recorded again from a later one.
func TestRepliesMatchRecordedParent(t *testing.T) {
	s, err := New(newTestEngine(t, 2), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, step := range []struct{ path, idem, body string }{
		{"/v1/txn", "1", `{"ops":[{"op":"insert","table":"kv","key":10,"val":100}]}`},
		{"/v1/txn", "2", `{"ops":[{"op":"put","table":"kv","key":11,"val":-5}]}`},
		{"/v1/txn", "3", `{"ops":[{"op":"get","table":"kv","key":10}]}`},
		{"/v1/txn", "4", `{"ops":[{"op":"add","table":"kv","key":10,"val":7}]}`},
		{"/v1/txn", "5", `{"ops":[{"op":"delete","table":"kv","key":11}]}`},
		{"/v1/txn", "6", `{"ops":[{"op":"get","table":"kv","key":10},{"op":"get","table":"kv","key":11},{"op":"delete","table":"kv","key":11},{"op":"put","table":"kv","key":12,"val":-9223372036854775808}]}`},
		{"/v1/txn", "4", `{"ops":[{"op":"add","table":"kv","key":10,"val":7}]}`},
		{"/v1/read", "", `{"ops":[{"op":"get","table":"kv","key":10},{"op":"get","table":"kv","key":12}]}`},
		{"/v1/txn", "7", ` {"ops": [{"op": "get", "table": "kv", "key": 10}]}`},
		{"/v1/txn", "8", `{"ops":[{"op":"insert","table":"kv","key":10,"val":1}]}`},
		{"/v1/txn", "9", `{"ops":[{"op":"frob","table":"kv","key":10}]}`},
		{"/v1/txn", "10", `{"ops":[`},
		{"/v1/txn", "", `{"ops":[{"op":"get","table":"kv","key":10}]}`},
		{"/v1/txn", "11", `{"ops":[{"op":"get","table":"kv","key":10}]}`}, // with a malformed deadline, below
	} {
		r := httptest.NewRequest(http.MethodPost, step.path, strings.NewReader(step.body))
		if step.idem != "" {
			r.Header.Set("Idempotency-Key", step.idem)
		}
		if step.idem == "11" {
			r.Header.Set("X-Deadline-Ms", "soon")
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		fmt.Fprintf(&got, "POST %s key=%q %s\n%d %s %s", step.path, step.idem, step.body, w.Code, w.Header().Get("Content-Type"), w.Body.Bytes())
	}
	want, err := os.ReadFile("testdata/parent_replies.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("replies differ from the recorded ones:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
