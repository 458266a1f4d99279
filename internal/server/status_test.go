package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"falcon/internal/core"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/pmem"
)

// post sends one body straight into the handler and returns status and reply.
func post(t *testing.T, s *Server, path string, idemKey uint64, body io.Reader, hdrs ...string) (int, TxnResponse) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, path, body)
	r.Header.Set("Idempotency-Key", fmt.Sprint(idemKey))
	for i := 0; i+1 < len(hdrs); i += 2 {
		r.Header.Set(hdrs[i], hdrs[i+1])
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	var resp TxnResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: reply %q: %v", path, w.Body.Bytes(), err)
	}
	return w.Code, resp
}

func opsBody(verb, table string, keys int) io.Reader {
	var b strings.Builder
	b.WriteString(`{"ops":[`)
	for k := 0; k < keys; k++ {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":%q,"table":%q,"key":%d,"val":1}`, verb, table, 1000+k)
	}
	b.WriteString(`]}`)
	return strings.NewReader(b.String())
}

// TestStatusTable drives every row of statusOf through the handler: the
// error decides the status and which counter moves, and the clock decides
// nothing that the error has not said.
func TestStatusTable(t *testing.T) {
	cfg := core.FalconConfig()
	cfg.Threads = 2
	cfg.Window.OverflowBytes = 1 << 10 // so that a few hundred ops are too many
	specs := WithIdemTable([]core.TableSpec{
		{Name: "kv", Schema: ServeSchema(0), Capacity: 1 << 14, KeyCol: 0, IndexKind: index.Hash},
		{Name: "tiny", Schema: ServeSchema(0), Capacity: 8, KeyCol: 0, IndexKind: index.Hash},
	}, 1<<10)
	e, err := core.New(pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20}), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	// The floor makes every request finish after a 5 ms deadline; the poked
	// estimate keeps admission from refusing such a deadline up front.
	s, err := New(e, Config{ServiceFloor: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	late := []string{"X-Deadline-Ms", "5"}
	if code, _ := post(t, s, "/v1/txn", 1, strings.NewReader(`{"ops":[{"op":"insert","table":"kv","key":1,"val":1}]}`)); code != http.StatusOK {
		t.Fatalf("seed insert: %d", code)
	}

	for i, row := range []struct {
		name    string
		path    string
		body    io.Reader
		hdrs    []string
		want    int
		expired bool // counted under Expired, not Errors
		inError string
	}{
		{"add of a missing key", "/v1/txn", opsBody("add", "kv", 1), nil, http.StatusNotFound, false, "not found"},
		{"duplicate insert", "/v1/txn", strings.NewReader(`{"ops":[{"op":"insert","table":"kv","key":1}]}`), nil, http.StatusConflict, false, "duplicate"},
		{"duplicate insert that finishes late", "/v1/txn", strings.NewReader(`{"ops":[{"op":"insert","table":"kv","key":1}]}`), late, http.StatusConflict, false, "duplicate"},
		{"more ops than the log window holds", "/v1/txn", opsBody("put", "kv", 400), nil, http.StatusRequestEntityTooLarge, false, "log capacity"},
		{"more rows than the table holds", "/v1/txn", opsBody("insert", "tiny", 64), nil, http.StatusInsufficientStorage, false, "table full"},
		{"deadline passes mid-transaction", "/v1/txn", opsBody("get", "kv", 20000), []string{"X-Deadline-Ms", "1"}, http.StatusGatewayTimeout, true, "deadline expired"},
		{"no such table", "/v1/txn", opsBody("get", "nope", 1), nil, http.StatusInternalServerError, false, "no such table"},
		{"no such table on the read endpoint", "/v1/read", opsBody("get", "nope", 1), nil, http.StatusInternalServerError, false, "no such table"},
	} {
		s.adm.ewma.Store(1)
		before := s.Snapshot().Server.Endpoints[row.path]
		code, resp := post(t, s, row.path, uint64(100+i), row.body, row.hdrs...)
		after := s.Snapshot().Server.Endpoints[row.path]
		if code != row.want || resp.Outcome != "error" || !strings.Contains(resp.Error, row.inError) {
			t.Errorf("%s: status %d %+v, want %d with %q", row.name, code, resp, row.want, row.inError)
		}
		wantErrors, wantExpired := before.Errors+1, before.Expired
		if row.expired {
			wantErrors, wantExpired = before.Errors, before.Expired+1
		}
		if after.Errors != wantErrors || after.Expired != wantExpired || after.OK != before.OK {
			t.Errorf("%s: errors %d→%d expired %d→%d ok %d→%d", row.name,
				before.Errors, after.Errors, before.Expired, after.Expired, before.OK, after.OK)
		}
	}

	// The rows no request can reach today (the engine folds a full heap into
	// ErrTableFull and panics on a full index) still have their status.
	for err, want := range map[error]int{
		fmt.Errorf("%w 3", heap.ErrHeapFull):              http.StatusInsufficientStorage,
		fmt.Errorf("insert: %w", index.ErrFull):           http.StatusInsufficientStorage,
		fmt.Errorf("%w: kv (insert)", core.ErrTableFull):  http.StatusInsufficientStorage,
		fmt.Errorf("op 0: %w", core.ErrCanceled):          http.StatusGatewayTimeout,
		fmt.Errorf("server: anything else"):               http.StatusInternalServerError,
		fmt.Errorf("wrapped twice: %w", errIdemRace):      http.StatusInternalServerError,
		fmt.Errorf("op 2: %w", core.ErrNotFound):          http.StatusNotFound,
		fmt.Errorf("op 2: %w", core.ErrDuplicateKey):      http.StatusConflict,
		fmt.Errorf("commit: %w", core.ErrTxnTooLarge):     http.StatusRequestEntityTooLarge,
		fmt.Errorf("%w and %w", io.EOF, core.ErrNotFound): http.StatusNotFound,
	} {
		if got := statusOf(err); got != want {
			t.Errorf("statusOf(%v) = %d, want %d", err, got, want)
		}
	}
}

// TestReadEndpointRefusesWritesBeforeAdmission: a write verb on /v1/read is
// the client's mistake — 400 at validation, no slot, no admission.
func TestReadEndpointRefusesWritesBeforeAdmission(t *testing.T) {
	s, err := New(newTestEngine(t, 2), Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-s.slots // a request that got as far as a slot would hang here
	code, resp := post(t, s, "/v1/read", 0, strings.NewReader(`{"ops":[{"op":"get","table":"kv","key":1},{"op":"put","table":"kv","key":1,"val":2}]}`))
	if code != http.StatusBadRequest || !strings.Contains(resp.Error, `read-only request carries "put" op`) {
		t.Fatalf("status %d %+v, want 400", code, resp)
	}
	if ep := s.Snapshot().Server.Endpoints["/v1/read"]; ep.Errors != 1 || ep.Requests != 1 || s.adm.depth.Load() != 0 {
		t.Fatalf("counters %+v, admission depth %d", ep, s.adm.depth.Load())
	}
	// ApplyRO's direct callers keep their own check.
	req, _ := ParseRequest([]byte(`{"ops":[{"op":"delete","table":"kv","key":1}]}`))
	if _, err := ApplyRO(s.Engine(), 0, req, nil); err == nil || !strings.Contains(err.Error(), `"delete" op`) {
		t.Fatalf("ApplyRO accepted a delete: %v", err)
	}
}

// unreadBody fails the test when anyone reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the oversized body was read")
	return 0, io.EOF
}

// TestOversizedBodyIsRefused: a body over the limit is a 413, never a body cut
// off at the limit and then blamed for being malformed JSON.
func TestOversizedBodyIsRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// A valid request of a little over 1 MiB: white space, then the ops.
	big := append(bytes.Repeat([]byte(" "), maxBody), `{"ops":[{"op":"get","table":"kv","key":1}]}`...)

	t.Run("declared length", func(t *testing.T) {
		r := httptest.NewRequest(http.MethodPost, "/v1/txn", unreadBody{t})
		r.ContentLength = int64(len(big))
		r.Header.Set("Idempotency-Key", "1")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "over the limit") {
			t.Fatalf("status %d %s, want 413", w.Code, w.Body)
		}
	})
	t.Run("chunked", func(t *testing.T) {
		// A reader that is not a *bytes.Reader leaves the length undeclared.
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/txn", struct{ io.Reader }{bytes.NewReader(big)})
		hr.Header.Set("Idempotency-Key", "2")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(raw), "too large") {
			t.Fatalf("status %d %s, want 413", resp.StatusCode, raw)
		}
	})
	t.Run("at the limit", func(t *testing.T) {
		fits := big[len(big)-maxBody:]
		for i, body := range []io.Reader{bytes.NewReader(fits), struct{ io.Reader }{bytes.NewReader(fits)}} {
			hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/txn", body)
			hr.Header.Set("Idempotency-Key", fmt.Sprint(10+i))
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("a body of exactly the limit (declared: %v): status %d", i == 0, resp.StatusCode)
			}
		}
	})
	if ep := s.Snapshot().Server.Endpoints["/v1/txn"]; ep.Errors != 2 || ep.OK != 2 || ep.Requests != 4 {
		t.Fatalf("counters %+v, want 2 errors and 2 ok of 4", ep)
	}
}
