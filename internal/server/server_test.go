package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/pmem"
)

func testSpecs() []core.TableSpec {
	return WithIdemTable([]core.TableSpec{{
		Name: "kv", Schema: ServeSchema(0), Capacity: 1 << 14,
		KeyCol: 0, IndexKind: index.Hash,
	}}, 1<<14)
}

func newTestEngine(t *testing.T, threads int) *core.Engine {
	t.Helper()
	cfg := core.FalconConfig()
	cfg.Threads = threads
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
	e, err := core.New(sys, cfg, testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, 4)
	s, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	return s, ts
}

func postTxn(t *testing.T, url string, idemKey uint64, req *TxnRequest, hdrs map[string]string) (*TxnResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/txn", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Idempotency-Key", fmt.Sprint(idemKey))
	for k, v := range hdrs {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var tr TxnResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("bad response body %q: %v", raw, err)
	}
	return &tr, resp.StatusCode
}

func TestServerBasicTxn(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	r1, code := postTxn(t, ts.URL, 1, &TxnRequest{Ops: []Op{
		{Op: "insert", Table: "kv", Key: 10, Val: 100},
		{Op: "get", Table: "kv", Key: 10},
	}}, nil)
	if code != http.StatusOK || r1.Outcome != "ok" || r1.Replayed {
		t.Fatalf("insert+get: code %d resp %+v", code, r1)
	}
	if len(r1.Results) != 2 || r1.Results[1].Val != 100 || !r1.Results[1].Found {
		t.Fatalf("results: %+v", r1.Results)
	}

	r2, code := postTxn(t, ts.URL, 2, &TxnRequest{Ops: []Op{
		{Op: "add", Table: "kv", Key: 10, Val: 5},
	}}, nil)
	if code != http.StatusOK || r2.Results[0].Val != 105 {
		t.Fatalf("add: code %d resp %+v", code, r2)
	}

	// get of a missing key is Found=false, not an error.
	r3, code := postTxn(t, ts.URL, 3, &TxnRequest{Ops: []Op{
		{Op: "get", Table: "kv", Key: 999},
	}}, nil)
	if code != http.StatusOK || r3.Results[0].Found {
		t.Fatalf("missing get: code %d resp %+v", code, r3)
	}
}

// TestServerIdempotentRetry: re-sending a committed request's key returns
// the original digest without re-executing the (non-idempotent) add.
func TestServerIdempotentRetry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	if _, code := postTxn(t, ts.URL, 1, &TxnRequest{Ops: []Op{
		{Op: "insert", Table: "kv", Key: 7, Val: 50},
	}}, nil); code != http.StatusOK {
		t.Fatalf("seed insert: code %d", code)
	}

	addReq := &TxnRequest{Ops: []Op{{Op: "add", Table: "kv", Key: 7, Val: 3}}}
	first, code := postTxn(t, ts.URL, 42, addReq, nil)
	if code != http.StatusOK || first.Replayed {
		t.Fatalf("first add: code %d resp %+v", code, first)
	}
	if first.Results[0].Val != 53 {
		t.Fatalf("first add val = %d", first.Results[0].Val)
	}

	retry, code := postTxn(t, ts.URL, 42, addReq, nil)
	if code != http.StatusOK || !retry.Replayed {
		t.Fatalf("retry: code %d resp %+v", code, retry)
	}
	if retry.Digest != first.Digest {
		t.Fatalf("retry digest %s != original %s", retry.Digest, first.Digest)
	}

	// The add must have executed exactly once: value is 53, not 56.
	check, _ := postTxn(t, ts.URL, 43, &TxnRequest{Ops: []Op{
		{Op: "get", Table: "kv", Key: 7},
	}}, nil)
	if check.Results[0].Val != 53 {
		t.Fatalf("value after retry = %d, want 53 (exactly-once violated)", check.Results[0].Val)
	}
}

// TestServerConcurrentSameKey: N racers with one idempotency key commit the
// add exactly once; every response agrees on the digest.
func TestServerConcurrentSameKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	if _, code := postTxn(t, ts.URL, 1, &TxnRequest{Ops: []Op{
		{Op: "insert", Table: "kv", Key: 5, Val: 0},
	}}, nil); code != http.StatusOK {
		t.Fatal("seed failed")
	}

	const racers = 8
	req := &TxnRequest{Ops: []Op{{Op: "add", Table: "kv", Key: 5, Val: 1}}}
	digests := make([]string, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, code := postTxn(t, ts.URL, 777, req, map[string]string{"X-Deadline-Ms": "5000"})
			if code == http.StatusOK {
				digests[i] = r.Digest
			}
		}(i)
	}
	wg.Wait()

	var want string
	for _, d := range digests {
		if d == "" {
			continue
		}
		if want == "" {
			want = d
		} else if d != want {
			t.Fatalf("digest disagreement: %s vs %s", d, want)
		}
	}
	if want == "" {
		t.Fatal("no racer succeeded")
	}
	check, _ := postTxn(t, ts.URL, 2, &TxnRequest{Ops: []Op{
		{Op: "get", Table: "kv", Key: 5},
	}}, nil)
	if check.Results[0].Val != 1 {
		t.Fatalf("value = %d after %d same-key racers, want 1", check.Results[0].Val, racers)
	}
}

// TestServerShedsWhenSaturated: with slow service and a tiny queue, excess
// concurrent requests are rejected with 429 + Retry-After instead of queuing.
func TestServerShedsWhenSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 2, ServiceFloor: 50 * time.Millisecond,
	})
	const clients = 12
	var wg sync.WaitGroup
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(&TxnRequest{Ops: []Op{{Op: "put", Table: "kv", Key: uint64(i), Val: 1}}})
			hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/txn", bytes.NewReader(body))
			hr.Header.Set("Idempotency-Key", fmt.Sprint(1000+i))
			hr.Header.Set("X-Deadline-Ms", "2000")
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Fatal("429 without Retry-After")
			}
		}
	}
	if shed == 0 {
		t.Fatalf("no sheds with %d clients, 1 worker, queue 2 (codes %v)", clients, codes)
	}
	if ok == 0 {
		t.Fatal("no request succeeded under overload")
	}
	snap := s.Snapshot()
	if snap.Server == nil || snap.Server.Endpoints["/v1/txn"].Shed() == 0 {
		t.Fatal("sheds not counted in ServerStats")
	}
}

// TestServerDeadlineExpiry: a deadline shorter than the service floor makes
// the request fail with 504 and an expired counter, not hang.
func TestServerDeadlineExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		ServiceFloor:     30 * time.Millisecond,
		SeedServiceNanos: 1, // keep admission from shedding on estimate
	})
	_, code := postTxn(t, ts.URL, 9, &TxnRequest{Ops: []Op{
		{Op: "put", Table: "kv", Key: 1, Val: 1},
	}}, map[string]string{"X-Deadline-Ms": "1"})
	if code != http.StatusGatewayTimeout && code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 504 (expired) or 429 (deadline shed)", code)
	}
	snap := s.Snapshot()
	ep := snap.Server.Endpoints["/v1/txn"]
	if ep.Expired == 0 && ep.ShedDeadline == 0 {
		t.Fatalf("neither expired nor deadline-shed counted: %+v", ep)
	}
}

// TestServerHealthAndMetrics: /healthz always 200; /readyz flips to 503 on
// drain; /metrics serves the Prometheus exposition with server families.
// TestSnapshotCarriesServer: Server.Snapshot is the engine's snapshot plus
// the server's own counters; the engine's snapshot alone leaves Server nil.
func TestSnapshotCarriesServer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if _, code := postTxn(t, ts.URL, 1, &TxnRequest{Ops: []Op{
		{Op: "put", Table: "kv", Key: 1, Val: 1},
	}}, nil); code != http.StatusOK {
		t.Fatal("request failed")
	}
	snap := s.Snapshot()
	if sv := snap.Server; sv == nil || sv.Workers != 2 || sv.Endpoints["/v1/txn"].OK != 1 {
		t.Fatalf("Server.Snapshot().Server = %+v", sv)
	}
	if snap.Commits == 0 || snap.Tables["kv"].Writes == 0 {
		t.Fatalf("engine part missing: %d commits, tables %+v", snap.Commits, snap.Tables)
	}
	if sv := s.Engine().ObsSnapshot().Server; sv != nil {
		t.Fatalf("Engine.ObsSnapshot carries the server's counters: %+v", sv)
	}
}

func TestServerHealthAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if _, code := postTxn(t, ts.URL, 1, &TxnRequest{Ops: []Op{
		{Op: "put", Table: "kv", Key: 1, Val: 1},
	}}, nil); code != http.StatusOK {
		t.Fatal("seed request failed")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d before drain", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"falcon_server_requests_total", "falcon_commits_total", "falcon_server_queue_cap",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %s:\n%s", want, body)
		}
	}

	if !s.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d after drain, want 503", code)
	}
	// New work is shed with 503 while draining.
	if _, code := postTxn(t, ts.URL, 2, &TxnRequest{Ops: []Op{
		{Op: "put", Table: "kv", Key: 2, Val: 2},
	}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain txn = %d, want 503", code)
	}
	// Drained engine: acked commits are durable (the Sync ran); snapshot is
	// coherent and the idempotency record is present.
	snap := s.Snapshot()
	if snap.Commits == 0 {
		t.Fatal("no commits after drain")
	}
}

// TestServerReadEndpoint: /v1/read serves get-only op lists without an
// idempotency key and rejects writes.
func TestServerReadEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if _, code := postTxn(t, ts.URL, 1, &TxnRequest{Ops: []Op{
		{Op: "insert", Table: "kv", Key: 3, Val: 33},
	}}, nil); code != http.StatusOK {
		t.Fatal("seed failed")
	}

	post := func(req *TxnRequest) (*TxnResponse, int) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/read", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var tr TxnResponse
		_ = json.Unmarshal(raw, &tr)
		return &tr, resp.StatusCode
	}

	r, code := post(&TxnRequest{Ops: []Op{{Op: "get", Table: "kv", Key: 3}}})
	if code != http.StatusOK || r.Results[0].Val != 33 {
		t.Fatalf("read: code %d resp %+v", code, r)
	}
	if _, code := post(&TxnRequest{Ops: []Op{{Op: "put", Table: "kv", Key: 3, Val: 1}}}); code == http.StatusOK {
		t.Fatal("write accepted on read endpoint")
	}
}

// TestParseRequestValidation covers the protocol-level rejects.
func TestParseRequestValidation(t *testing.T) {
	if _, err := ParseRequest([]byte(`{"ops":[]}`)); err == nil {
		t.Fatal("empty ops accepted")
	}
	if _, err := ParseRequest([]byte(`{"ops":[{"op":"frob","table":"kv"}]}`)); err == nil {
		t.Fatal("unknown verb accepted")
	}
	if _, err := ParseRequest([]byte(`{"ops":[{"op":"get"}]}`)); err == nil {
		t.Fatal("missing table accepted")
	}
	if _, err := ParseRequest([]byte(`not json`)); err == nil {
		t.Fatal("malformed body accepted")
	}
	if _, err := ParseRequest([]byte(`{"ops":[{"op":"get","table":"kv","key":1}]}`)); err != nil {
		t.Fatal(err)
	}
}
