package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/pmem"
)

// waitFor polls cond, which some other goroutine is about to make true.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// idle reports whether every slot is back and nothing is admitted.
func (s *Server) idle() bool { return len(s.slots) == cap(s.slots) && s.adm.depth.Load() == 0 }

// drainedWithin reports whether the in-flight count reaches zero within d.
func (s *Server) drainedWithin(d time.Duration) bool {
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestSlotsSixteenConnectionsTwoWorkers: sixteen connections share two
// engine workers, every add lands exactly once — retries under a reused
// idempotency key included — and under the race detector (make soak) two
// requests holding one worker id would show as a race on that worker's
// clock and phase sets, which are plain memory.
func TestSlotsSixteenConnectionsTwoWorkers(t *testing.T) {
	const conns, perConn, keys = 16, 60, 4
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2 * conns})
	for k := 0; k < keys; k++ {
		if _, code := postTxn(t, ts.URL, uint64(1+k), &TxnRequest{Ops: []Op{{Op: "insert", Table: "kv", Key: uint64(k)}}}, nil); code != http.StatusOK {
			t.Fatalf("seed insert: %d", code)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{}} // a connection of its own
			defer hc.CloseIdleConnections()
			for i := 0; i < perConn; i++ {
				body := fmt.Sprintf(`{"ops":[{"op":"add","table":"kv","key":%d,"val":%d}]}`, i%keys, c+1)
				idem := strconv.Itoa(1000 + c*perConn + i)
				var digest string
				for attempt := 0; attempt < 2; attempt++ { // the second is a retry that must replay
					hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/txn", strings.NewReader(body))
					hr.Header.Set("Idempotency-Key", idem)
					hr.Header.Set("X-Deadline-Ms", "30000")
					resp, err := hc.Do(hr)
					if err != nil {
						t.Error(err)
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || bytes.Contains(raw, []byte(`"replayed":true`)) != (attempt == 1) {
						t.Errorf("conn %d add %d attempt %d: %d %s", c, i, attempt, resp.StatusCode, raw)
						return
					}
					d := raw[bytes.Index(raw, []byte(`"digest":"`)):][:len(`"digest":"0123456789abcdef"`)]
					if attempt == 1 && string(d) != digest {
						t.Errorf("conn %d add %d: retry %s, first answer %s", c, i, d, digest)
					}
					digest = string(d)
				}
			}
		}(c)
	}
	wg.Wait()
	var total int64
	for k := 0; k < keys; k++ {
		r, _ := postTxn(t, ts.URL, uint64(100+k), &TxnRequest{Ops: []Op{{Op: "get", Table: "kv", Key: uint64(k)}}}, nil)
		total += r.Results[0].Val
	}
	if want := int64(perConn * conns * (conns + 1) / 2); total != want {
		t.Fatalf("adds total %d, want %d: some add ran twice or not at all", total, want)
	}
	ep := s.Snapshot().Server.Endpoints["/v1/txn"]
	if ep.Replayed != conns*perConn || ep.Shed() != 0 || ep.Errors != 0 || !s.idle() {
		t.Fatalf("counters %+v, idle %v", ep, s.idle())
	}
}

// TestDrainWaitsForInflight: Drain returns only once a request that was
// running when it started has finished — and that request is answered 200 —
// while everything that arrives after it started is shed 503.
func TestDrainWaitsForInflight(t *testing.T) {
	const floor = 150 * time.Millisecond
	s, ts := newTestServer(t, Config{Workers: 1, ServiceFloor: floor})
	slow := make(chan int, 1)
	go func() {
		_, code := postTxn(t, ts.URL, 1, &TxnRequest{Ops: []Op{{Op: "put", Table: "kv", Key: 1, Val: 1}}}, map[string]string{"X-Deadline-Ms": "5000"})
		slow <- code
	}()
	waitFor(t, "the slow request to take the slot", func() bool { return len(s.slots) == 0 })

	drained := make(chan bool, 1)
	start := time.Now()
	go func() { drained <- s.Drain(5 * time.Second) }()
	waitFor(t, "the drain flag", s.stop.Stopped)
	if _, code := postTxn(t, ts.URL, 2, &TxnRequest{Ops: []Op{{Op: "put", Table: "kv", Key: 2, Val: 2}}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("a request that arrived during the drain: %d, want 503", code)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while the slow request was still running")
	default:
	}
	if !<-drained || !s.idle() || time.Since(start) < floor/2 {
		t.Fatalf("Drain: idle %v after %v", s.idle(), time.Since(start))
	}
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("the request in flight when the drain started: %d, want 200", code)
	}
	if ep := s.Snapshot().Server.Endpoints["/v1/txn"]; ep.OK != 1 || ep.ShedDraining != 1 {
		t.Fatalf("counters %+v", ep)
	}
}

// TestDrainTimesOut: Drain reports false when a request outlasts its timeout.
func TestDrainTimesOut(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, ServiceFloor: 300 * time.Millisecond})
	slow := make(chan int, 1)
	go func() {
		_, code := postTxn(t, ts.URL, 1, &TxnRequest{Ops: []Op{{Op: "put", Table: "kv", Key: 1, Val: 1}}}, map[string]string{"X-Deadline-Ms": "5000"})
		slow <- code
	}()
	waitFor(t, "the slow request to take the slot", func() bool { return len(s.slots) == 0 })
	if s.Drain(20 * time.Millisecond) {
		t.Fatal("Drain reported a clean drain with a request still running")
	}
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("the slow request: %d", code)
	}
	if !s.Drain(5 * time.Second) {
		t.Fatal("second Drain, after the request finished, timed out")
	}
}

// TestSlotsReturnAfterFailures: whatever way a request ends — its deadline
// passes while it waits for a slot, the deadline hook cancels it inside the
// transaction, its client hangs up — slot, admission depth and in-flight
// count come back.
func TestSlotsReturnAfterFailures(t *testing.T) {
	const floor = 60 * time.Millisecond
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ServiceFloor: floor})
	put := func(idem uint64, deadlineMs string) int {
		_, code := postTxn(t, ts.URL, idem, &TxnRequest{Ops: []Op{{Op: "put", Table: "kv", Key: idem, Val: 1}}}, map[string]string{"X-Deadline-Ms": deadlineMs})
		return code
	}

	// Expired while waiting: the slot is busy for 60 ms, the deadline is 10.
	first := make(chan int, 1)
	go func() { first <- put(1, "5000") }()
	waitFor(t, "the first request to take the slot", func() bool { return len(s.slots) == 0 })
	s.adm.ewma.Store(1) // or admission would refuse the short deadline up front
	if code := put(2, "10"); code != http.StatusGatewayTimeout {
		t.Fatalf("request that waited out its deadline: %d, want 504", code)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
	if ep := s.Snapshot().Server.Endpoints["/v1/txn"]; ep.Expired != 1 || !s.idle() || !s.drainedWithin(time.Second) {
		t.Fatalf("after an expiry in the queue: %+v idle %v", ep, s.idle())
	}

	// Canceled mid-transaction: 20 000 gets do not fit into a millisecond.
	s.adm.ewma.Store(1)
	body, _ := io.ReadAll(opsBody("get", "kv", 20000))
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/txn", bytes.NewReader(body))
	hr.Header.Set("Idempotency-Key", "3")
	hr.Header.Set("X-Deadline-Ms", "1")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("request canceled mid-transaction: %d, want 504", resp.StatusCode)
	}
	if ep := s.Snapshot().Server.Endpoints["/v1/txn"]; ep.Expired != 2 || !s.idle() || !s.drainedWithin(time.Second) {
		t.Fatalf("after a cancel mid-transaction: %+v idle %v", ep, s.idle())
	}

	// The client hangs up while its request holds the slot.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	const one = `{"ops":[{"op":"put","table":"kv","key":4,"val":4}]}`
	fmt.Fprintf(conn, "POST /v1/txn HTTP/1.1\r\nHost: x\r\nIdempotency-Key: 4\r\nContent-Length: %d\r\n\r\n%s", len(one), one)
	waitFor(t, "the doomed request to take the slot", func() bool { return len(s.slots) == 0 })
	conn.Close()
	waitFor(t, "the slot to come back after the hang-up", s.idle)
	if !s.drainedWithin(time.Second) {
		t.Fatal("in-flight count did not return after the hang-up")
	}
	if code := put(5, "5000"); code != http.StatusOK {
		t.Fatalf("request after the three failures: %d", code)
	}
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (w discard) Header() http.Header         { return w.h }
func (w discard) Write(b []byte) (int, error) { return len(b), nil }
func (discard) WriteHeader(int)               {}

// TestHandlerAllocations gates what one committed one-op put costs the heap
// from ServeHTTP in to ServeHTTP out. Seven of the allocations are the
// engine's (transaction, log record, write set) and two the test's own; the
// request path with a worker pool, encoding/json both ways and a channel per
// request made 36.
func TestHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	s, err := New(newTestEngine(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := []byte(`{"ops":[{"op":"put","table":"kv","key":1,"val":2}]}`)
	rd := bytes.NewReader(body)
	r, _ := http.NewRequest(http.MethodPost, "/v1/txn", rd)
	w := discard{http.Header{}}
	key := 0
	allocs := testing.AllocsPerRun(1000, func() {
		key++
		r.Header.Set("Idempotency-Key", strconv.Itoa(key))
		rd.Reset(body)
		h.ServeHTTP(w, r)
	})
	if ep := s.Snapshot().Server.Endpoints["/v1/txn"]; ep.OK != 1001 {
		t.Fatalf("measured something other than commits: %+v", ep)
	}
	if allocs > 14 {
		t.Fatalf("%.0f allocations per request, the gate is 14", allocs)
	}
	t.Logf("%.0f allocations per request", allocs)
}

// TestTransactionPanicStopsTheProcess: a panic inside a transaction must end
// the process, as it did when transactions ran on pool goroutines. On a
// connection's goroutine net/http would recover it and go on serving from an
// engine in an unknown state, the slot gone for good. The test runs itself
// as a child that serves one panicking request and reports if it lives.
func TestTransactionPanicStopsTheProcess(t *testing.T) {
	if os.Getenv("FALCON_PANIC_CHILD") == "" {
		child := exec.Command(os.Args[0], "-test.run=^TestTransactionPanicStopsTheProcess$", "-test.timeout=60s")
		child.Env = append(os.Environ(), "FALCON_PANIC_CHILD=1")
		out, err := child.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!bytes.Contains(out, []byte("raised again off the connection's goroutine")) ||
			!bytes.Contains(out, []byte("index out of range")) || bytes.Contains(out, []byte("SURVIVED")) {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}

	// "narrow" has a key column and nothing else: writing the value column
	// of a tuple panics inside the transaction, as a bug in the engine would.
	cfg := core.FalconConfig()
	cfg.Threads = 1
	specs := WithIdemTable([]core.TableSpec{{
		Name: "narrow", Schema: layout.NewSchema(layout.Column{Name: "k", Kind: layout.Uint64}),
		Capacity: 64, KeyCol: 0, IndexKind: index.Hash,
	}, {
		Name: "kv", Schema: ServeSchema(0), Capacity: 64, KeyCol: 0, IndexKind: index.Hash,
	}}, 64)
	e, err := core.New(pmem.NewSystem(pmem.Config{DeviceBytes: 16 << 20}), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go http.Serve(ln, s.Handler()) //nolint:errcheck // the process is meant to die under it
	hc := &http.Client{Timeout: 2 * time.Second}
	send := func(idem, body string) string {
		hr, _ := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/txn", strings.NewReader(body))
		hr.Header.Set("Idempotency-Key", idem)
		resp, err := hc.Do(hr)
		if err != nil {
			return err.Error()
		}
		resp.Body.Close()
		return resp.Status
	}
	first := send("1", `{"ops":[{"op":"insert","table":"narrow","key":1,"val":1}]}`)
	second := send("2", `{"ops":[{"op":"put","table":"kv","key":1,"val":1}]}`)
	fmt.Printf("SURVIVED a panic inside a transaction: the request got %q, the next one %q, %d of %d slots free\n",
		first, second, len(s.slots), cap(s.slots))
}
