package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"falcon/benchmark/gen"
	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/server"
)

const (
	serveRecords = 100_000
	serveIdemCap = 1 << 21
	serveWarmup  = 4_000 // requests per connection before the measured run
	// serveEpochRequests is the closed loop's fixed unit of work: a run ends
	// when one connection has sent this many requests to a freshly preloaded
	// server, about 2.5 s at the commit that added the benchmark. Every
	// /v1/txn request, gets included, inserts one idempotency row, so a run
	// that simply went on until the time is up would fill more of that table
	// and touch more memory on a faster program or host: at that commit twice
	// the requests mean a quarter more resident set and 2 % more media bytes
	// per op.
	serveEpochRequests = 60_000
	serveTable         = "kv"
	// openRatePerSec is the open loop's arrival rate, frozen here: about 40 %
	// of the read-only capacity measured at the commit that added the
	// benchmark. It is never derived at run time.
	openRatePerSec = 16_000
	scrapeEvery    = 100 * time.Millisecond
	sloLimit       = 5 * time.Millisecond
	// maxTracedRequests sizes the per-request handler-time table of a traced
	// pass.
	maxTracedRequests = 1 << 21
	// spanSampleMask keeps the request and server.handler spans of one request
	// id in 8 for the trace file; every request is timed all the same.
	spanSampleMask = 7
)

// serveWorkload is both serving workloads: the closed read-write loop on
// /v1/txn and the open read-only loop on /v1/read. The server runs in this
// process behind a real loopback TCP listener: against a separate process
// two thirds of a round trip on a two-core host is cross-process wake-up,
// which measures the scheduler and not the program.
type serveWorkload struct {
	opt  options
	open bool

	e       *core.Engine
	srv     *server.Server
	hs      *http.Server
	served  chan error
	spans   *handlerSpans // traced runs only
	conns   [threads]*clientConn
	streams [threads]*gen.KVStream
	warm    [threads]*gen.KVStream // the streams' state right after warm-up
	// The open loop's schedule runs on one timeline across runs: sched[c]
	// draws connection c's due times, nextDue[c] is the first one not yet
	// sent and runsEnd the end of the last run on that timeline.
	sched   [threads]*gen.Poisson
	nextDue [threads]time.Duration
	runsEnd time.Duration
	// adds[c][key] sums the acknowledged adds of connection c; unknown marks
	// keys with an add whose outcome the client never learned.
	adds     [threads][]int64
	unknown  sync.Map
	requests [threads]uint64 // sent so far, also the idempotency sequence
	scraper  *http.Client
	addr     string
	closed   bool
}

func (s *serveWorkload) records() uint64 { return uint64(serveRecords / s.opt.scale) }

// rewind puts the generators back. The read-only loop leaves nothing behind
// on the server; the closed loop has left an idempotency row per request, so
// it starts over on a new server.
func (s *serveWorkload) rewind() error {
	if s.open {
		s.resetStreams()
		return nil
	}
	s.close()
	*s = serveWorkload{opt: s.opt}
	runtime.GC() // the old engine goes first, or the peak resident set would follow the collector's timing
	return s.setup()
}

func (s *serveWorkload) resetStreams() {
	s.runsEnd = 0
	for c := range s.streams {
		s.streams[c] = s.warm[c].Clone()
		s.sched[c] = gen.NewPoisson(s.opt.seed, c, openRatePerSec/threads)
		s.nextDue[c] = s.sched[c].Next()
	}
}

func (s *serveWorkload) path() string {
	if s.open {
		return "/v1/read"
	}
	return "/v1/txn"
}

func (s *serveWorkload) setup() error {
	specs := server.WithIdemTable([]core.TableSpec{{
		Name: serveTable, Schema: server.ServeSchema(0), Capacity: 2 * s.records(),
		KeyCol: 0, IndexKind: index.Hash,
	}}, uint64(serveIdemCap/s.opt.scale))
	e, err := falconEngine(specs)
	if err != nil {
		return err
	}
	if err := preloadKV(e, s.records()); err != nil {
		return err
	}
	s.e = e
	if s.srv, err = server.New(e, server.Config{}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	handler := s.srv.Handler()
	if s.opt.trace {
		s.spans = &handlerSpans{next: handler, capacity: maxTracedRequests / threads / s.opt.scale}
		handler = s.spans
	}
	s.hs = &http.Server{Handler: handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.scraper = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	writePct := 50
	if s.open {
		writePct = 0
	}
	for c := range s.conns {
		if s.conns[c], err = dialClient(s.addr); err != nil {
			return err
		}
		s.streams[c] = gen.NewServe(s.opt.seed, c, s.records(), writePct)
		s.adds[c] = make([]int64, s.records())
	}
	warm := uint64(serveWarmup / s.opt.scale)
	_, err = runWorkers(time.Hour, func(c int, stop *atomic.Bool) error {
		r := &connRun{s: s, c: c, stream: s.streams[c], lat: newLatRecorder(0), budget: warm}
		r.closedLoop(stop)
		if r.failed > 0 {
			return fmt.Errorf("connection %d: %d of %d warm-up requests failed: %v", c, r.failed, r.attempted, r.firstErr)
		}
		return nil
	})
	for c := range s.streams {
		s.warm[c] = s.streams[c].Clone()
	}
	s.resetStreams()
	return err
}

// preloadKV inserts rows key -> key as falcon-serve's preload does: batches
// of 256, rotating over the engine workers so both heap ranges fill evenly.
func preloadKV(e *core.Engine, records uint64) error {
	t := e.Table(serveTable)
	s := t.Schema()
	buf := make([]byte, s.TupleSize())
	const batch = 256
	for lo := uint64(0); lo < records; lo += batch {
		hi := min(lo+batch, records)
		err := e.Run(int(lo/batch)%threads, func(tx *core.Txn) error {
			for k := lo; k < hi; k++ {
				s.PutUint64(buf, 0, k)
				s.PutInt64(buf, 1, int64(k))
				if err := tx.Insert(t, k, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("preload rows [%d,%d): %w", lo, hi, err)
		}
	}
	return nil
}

// close drains the server and stops every goroutine the set-up started.
func (s *serveWorkload) close() {
	if s.closed || s.srv == nil {
		return
	}
	s.closed = true
	for _, c := range s.conns {
		if c != nil {
			c.conn.Close()
		}
	}
	s.scraper.CloseIdleConnections()
	s.srv.Drain(5 * time.Second)
	s.hs.Close()
	<-s.served
}

// clientConn is one keep-alive HTTP/1.1 connection of the load generator. It
// writes requests by hand and reads responses with net/http's own parser:
// much less client-side work than http.Client, whose two goroutines per
// connection would also compete with the server for the two cores.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
	in   []byte
	resp server.TxnResponse
}

func dialClient(addr string) (*clientConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{conn: conn, br: bufio.NewReaderSize(conn, 4096)}, nil
}

// do sends one POST of c.body and decodes the reply into c.resp. The request
// id is the idempotency key, and travels in X-Request-Id too so that the
// traced pass can pair the server.handler span with the request span.
func (c *clientConn) do(path string, id uint64) (status int, err error) {
	b := append(c.out[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: falcon\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(c.body)), 10)
	b = append(b, "\r\nIdempotency-Key: "...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, "\r\nX-Request-Id: "...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, c.body...)
	c.out = b
	if _, err := c.conn.Write(b); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	if n := resp.ContentLength; n >= 0 {
		if int64(cap(c.in)) < n {
			c.in = make([]byte, n)
		}
		c.in = c.in[:n]
		_, err = io.ReadFull(resp.Body, c.in)
	} else {
		c.in, err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	c.resp = server.TxnResponse{Results: c.resp.Results[:0]}
	if err := json.Unmarshal(c.in, &c.resp); err != nil {
		return resp.StatusCode, fmt.Errorf("response body: %w", err)
	}
	return resp.StatusCode, nil
}

// connRun is one connection's share of one run.
type connRun struct {
	s      *serveWorkload
	c      int
	stream *gen.KVStream
	rec    *spanRecorder
	lat    *latRecorder // from send to reply
	late   *latRecorder // open loop: send time minus due time
	due    *latRecorder // open loop: from due time to reply
	budget uint64       // closed loop: requests to send at most

	attempted, failed, sloMiss uint64
	backlogMax                 float64
	firstErr                   error
	last                       time.Time // when the last response arrived
}

// request sends the stream's next op and verifies the reply; it returns the
// time the reply arrived and whether the op was a write.
func (r *connRun) request() (time.Time, bool, error) {
	s, c := r.s, r.s.conns[r.c]
	op := r.stream.Next()
	c.body = gen.AppendBody(c.body[:0], serveTable, op)
	id := r.nextID()
	s.requests[r.c]++
	status, err := c.do(s.path(), id)
	now := time.Now()
	r.attempted++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, c.resp.Error)
	}
	if err == nil {
		err = verifyReply(&c.resp, op, s.open)
	}
	switch {
	case err != nil:
		if op.Write {
			s.unknown.Store(op.Key, true)
		}
	case op.Write:
		s.adds[r.c][op.Key] += op.Val
	}
	return now, op.Write, err
}

// verifyReply checks one 200-OK reply against its request: one result, the
// key found, the digest the server's own digest of those results, and on the
// read-only workload (nothing ever writes) the preloaded value.
func verifyReply(resp *server.TxnResponse, op gen.KVOp, readOnlyRun bool) error {
	switch {
	case resp.Outcome != "ok" || resp.Replayed:
		return fmt.Errorf("outcome %q replayed %v", resp.Outcome, resp.Replayed)
	case len(resp.Results) != 1 || !resp.Results[0].Found:
		return fmt.Errorf("results %+v", resp.Results)
	case resp.Digest != server.DigestOf(resp.Results):
		return fmt.Errorf("digest %s does not match results %+v", resp.Digest, resp.Results)
	case readOnlyRun && resp.Results[0].Val != int64(op.Key):
		return fmt.Errorf("key %d reads %d, preloaded %d", op.Key, resp.Results[0].Val, op.Key)
	}
	return nil
}

// nextID is the id of the request about to be sent: connection (from 1, so
// that no id is 0) and sequence number. It is the idempotency key too.
func (r *connRun) nextID() uint64 { return uint64(r.c+1)<<40 | r.s.requests[r.c] }

// splitID undoes nextID.
func splitID(id uint64) (conn int, seq uint64) { return int(id>>40) - 1, id & (1<<40 - 1) }

func (r *connRun) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// closedLoop sends the next request as soon as the previous one is answered.
func (r *connRun) closedLoop(stop *atomic.Bool) {
	for i := uint64(0); !stop.Load() && i < r.budget; i++ {
		t0 := time.Now()
		id := r.nextID()
		now, write, err := r.request()
		d := now.Sub(t0)
		if write || r.s.open {
			r.lat.add(d) // on the mixed workload the reported latency is the add's, see README
		}
		r.last = now
		if err != nil {
			r.fail(err)
		}
		if r.rec != nil && id&spanSampleMask == 0 {
			r.rec.add("request", r.c, id, t0, d)
		}
	}
}

// sleep blocks in nanosleep(2). time.Sleep will not do for gaps of 125 us: an
// idle Go runtime waits in epoll, whose timeout counts whole milliseconds, so
// every sleep would end about a millisecond late and the "open" loop would
// send in bursts of eight. The thread's timer slack is set to 1 ns first: the
// default of 50 us delays every wake-up by as much, which on the reference
// host is more than a request takes.
func sleep(d time.Duration) {
	const prSetTimerslack = 29 // PR_SET_TIMERSLACK of prctl(2); not in package syscall
	// A failure only leaves the default slack, and the lateness is reported.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // the caller checks the clock again
}

// openLoop sends each request of the stretch [from, from+d) of the schedule's
// timeline at its due time, or at once when it is already late; it never skips
// a due request. It times each one twice. From the due time, which counts the
// wait a stall imposes on the requests behind it: the SLO and the loadgen.due_*
// metrics. And from send: the end-to-end median. On the reference host
// nanosleep wakes 40 to 90 us late depending on the hour, one to two round
// trips, so the median from due time is mostly the generator's own lateness
// and moves by half for the same code.
func (r *connRun) openLoop(start time.Time, from, d time.Duration) {
	gap := float64(threads) / openRatePerSec * 1e9 // mean ns between this connection's arrivals
	next := &r.s.nextDue[r.c]
	for *next < from+d {
		due := start.Add(*next - from)
		*next = r.s.sched[r.c].Next()
		sent := time.Now()
		for wait := due.Sub(sent); wait > 0; wait = due.Sub(sent) {
			sleep(wait) // a signal may end it early
			sent = time.Now()
		}
		late := sent.Sub(due)
		r.late.add(late)
		r.backlogMax = max(r.backlogMax, float64(late)/gap)
		id := r.nextID()
		now, _, err := r.request()
		r.lat.add(now.Sub(sent))
		r.due.add(now.Sub(due))
		r.last = now
		if err != nil {
			r.fail(err)
		}
		if err != nil || now.Sub(due) > sloLimit {
			r.sloMiss++
		}
		if r.rec != nil && id&spanSampleMask == 0 {
			r.rec.add("request", r.c, id, sent, now.Sub(sent))
		}
	}
}

func (s *serveWorkload) run(d time.Duration, rec *spanRecorder) (runStats, error) {
	var runs [threads]*connRun
	perConn := uint64((serveWarmup + serveEpochRequests) / s.opt.scale)
	for c := range runs {
		runs[c] = &connRun{
			s: s, c: c, stream: s.streams[c], rec: rec,
			lat:  newLatRecorder(int(d.Seconds()*40_000) + 1024),
			late: newLatRecorder(int(d.Seconds()*openRatePerSec) + 1024),
			due:  newLatRecorder(int(d.Seconds()*openRatePerSec) + 1024),
		}
		// What is left of the epoch; with nothing left the run sends nothing.
		runs[c].budget = perConn - min(perConn, s.requests[c])
	}
	if s.spans != nil {
		s.spans.arm(rec)
	}
	mark, section := s.serverMark(), markSection(s.e)
	start := time.Now()
	var scrapes *latRecorder
	var elapsed time.Duration
	if s.open {
		var stopScrape func()
		scrapes, stopScrape = s.startScraper()
		var wg sync.WaitGroup
		for c := range runs {
			wg.Add(1)
			go func(r *connRun) {
				defer wg.Done()
				r.openLoop(start, s.runsEnd, d)
			}(runs[c])
		}
		wg.Wait()
		s.runsEnd += d
		elapsed = d
		for _, r := range runs {
			elapsed = max(elapsed, r.last.Sub(start))
		}
		stopScrape()
	} else {
		elapsed, _ = runWorkers(d, func(c int, stop *atomic.Bool) error {
			runs[c].closedLoop(stop)
			if runs[c].attempted == runs[c].budget {
				stop.Store(true) // the epoch is over, for the other connection too
			}
			return nil
		})
	}
	if s.spans != nil {
		s.spans.arm(nil)
	}

	st := runStats{elapsed: elapsed, lat: mergeLat(runs[0].lat, runs[1].lat), extra: map[string]float64{}}
	st.engine, st.cpu = section.until(s.e)
	var sloMiss uint64
	var firstErr error
	for _, r := range runs {
		st.attempted += r.attempted
		st.failed += r.failed
		sloMiss += r.sloMiss
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	st.ops = st.attempted - st.failed
	s.serverWindow(mark, st.extra)
	if s.open {
		// Every due request is sent, so the loop falls short of its rate only
		// by failing requests or by overrunning its time.
		st.extra["loadgen.achieved_rate_share"] = float64(st.ops) / float64(max(st.attempted, 1)) * d.Seconds() / elapsed.Seconds()
		st.extra["loadgen.sched_late_p99_us"] = mergeLat(runs[0].late, runs[1].late).quantileUS(0.99)
		due := mergeLat(runs[0].due, runs[1].due)
		st.extra["loadgen.due_latency_p50_us"] = due.quantileUS(0.5)
		st.extra["loadgen.due_latency_p99_us"] = due.quantileUS(0.99)
		st.extra["loadgen.slo_miss_share"] = float64(sloMiss) / float64(max(st.attempted, 1))
		st.extra["loadgen.backlog_max"] = max(runs[0].backlogMax, runs[1].backlogMax)
		st.extra["server.scrape_us"] = mergeLat(scrapes).quantileUS(0.5)
	}
	var err error
	if st.failed > 0 {
		err = fmt.Errorf("%d of %d requests failed, first: %w", st.failed, st.attempted, firstErr)
	}
	// A server that cannot hold the rate leaves the generator behind for good.
	// One stall of the host near the end also overruns the run's time, but the
	// generator has caught up with every stall before it.
	if share := st.extra["loadgen.achieved_rate_share"]; s.open && share < 0.99 {
		if late := lastQuarterLateness(runs[:]); late > sloLimit {
			err = errors.Join(err, fmt.Errorf("open loop saturated: it achieved %.4f of the target rate and sent its last quarter a median %v late", share, late))
		}
	}
	return st, err
}

// lastQuarterLateness is the median of send time minus due time over the
// last quarter of each connection's requests.
func lastQuarterLateness(runs []*connRun) time.Duration {
	tails := make([]*latRecorder, len(runs))
	for i, r := range runs {
		tails[i] = &latRecorder{r.late.ns[len(r.late.ns)*3/4:]}
	}
	return time.Duration(mergeLat(tails...).quantileUS(0.5) * 1e3)
}

// startScraper GETs /metrics every 100 ms beside the load, as a monitoring
// system would; the returned stop function waits for it to end.
func (s *serveWorkload) startScraper() (*latRecorder, func()) {
	lat := newLatRecorder(1024)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			resp, err := s.scraper.Get("http://" + s.addr + "/metrics")
			if err != nil {
				continue
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				lat.add(time.Since(t0))
			}
		}
	}()
	return lat, func() { close(done); wg.Wait() }
}

// serverMark reads the server's own counters at a quiescent point.
type serverMark struct {
	requests, shed, latSum, latCount uint64
}

func (s *serveWorkload) serverMark() serverMark {
	var m serverMark
	sv := s.srv.Snapshot().Server
	if sv == nil {
		return m
	}
	for _, ep := range sv.Endpoints {
		m.requests += ep.Requests
		m.shed += ep.Shed()
		m.latSum += ep.Latency.Sum
		m.latCount += ep.Latency.Count
	}
	return m
}

func (s *serveWorkload) serverWindow(from serverMark, out map[string]float64) {
	to := s.serverMark()
	if n := to.requests - from.requests; n > 0 {
		out["server.shed_share"] = float64(to.shed-from.shed) / float64(n)
	}
	if n := to.latCount - from.latCount; n > 0 {
		out["server.service_mean_us"] = float64(to.latSum-from.latSum) / float64(n) / 1e3
	}
}

// check drains the server, power-fails the served engine, recovers it and
// demands of every key the preloaded value plus all acknowledged adds.
func (s *serveWorkload) check() (checkReport, error) {
	var rep checkReport
	s.close()
	rec, err := crashAndRecover(s.e, &rep)
	if err != nil {
		return rep, err
	}
	t := rec.Table(serveTable)
	buf := make([]byte, t.Schema().TupleSize())
	for key := uint64(0); key < s.records(); key++ {
		if _, ambiguous := s.unknown.Load(key); ambiguous {
			rep.ambiguousKeysSkipped++
			continue
		}
		if err := rec.RunRO(0, func(tx *core.Txn) error { return tx.Read(t, key, buf) }); err != nil {
			return rep, fmt.Errorf("key %d after recovery: %w", key, err)
		}
		want := int64(key) + s.adds[0][key] + s.adds[1][key]
		if got := t.Schema().GetInt64(buf, 1); got != want {
			return rep, fmt.Errorf("key %d after recovery: value %d, preloaded %d plus acknowledged adds %d+%d",
				key, got, key, s.adds[0][key], s.adds[1][key])
		}
		rep.keysChecked++
	}
	return rep, nil
}

// handlerSpans is the traced pass's middleware around the server's handler:
// it times ServeHTTP per request (the server.handler span) and files the time
// under the request id, so the client can subtract it from its round trip.
type handlerSpans struct {
	next http.Handler
	rec  atomic.Pointer[spanRecorder]
	mu   sync.Mutex
	lat  *latRecorder
	// nanos[conn][seq] is the handler time of that request, written once by
	// the connection's server goroutine and read after the run; capacity is
	// the length of each table.
	nanos    [threads][]int64
	capacity int
}

func (h *handlerSpans) arm(rec *spanRecorder) {
	if rec != nil && h.lat == nil {
		h.lat = newLatRecorder(1 << 16)
		for c := range h.nanos {
			h.nanos[c] = make([]int64, h.capacity)
		}
	}
	h.rec.Store(rec)
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	if rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	id, err := strconv.ParseUint(r.Header.Get("X-Request-Id"), 10, 64)
	if err != nil {
		return // the scraper's GET carries no id
	}
	conn, seq := splitID(id)
	if conn < 0 || conn >= threads {
		return
	}
	if seq < uint64(len(h.nanos[conn])) {
		h.nanos[conn][seq] = int64(d)
	}
	h.mu.Lock()
	h.lat.add(d)
	h.mu.Unlock()
	if id&spanSampleMask == 0 {
		rec.add("server.handler", threads+conn, id, t0, d)
	}
}

// framing pairs every recorded request span with its handler span: the
// median of (round trip - handler) is the self time of the HTTP framing,
// client and server side, plus the loopback. It also returns all handler
// times and the recorded round trips.
func (h *handlerSpans) framing(rec *spanRecorder) (handler, request latSummary, framingSelfUS float64, err error) {
	self, trips := newLatRecorder(len(rec.spans)), newLatRecorder(len(rec.spans))
	for _, sp := range rec.spans {
		if sp.name != "request" {
			continue
		}
		conn, seq := splitID(sp.id)
		if seq < uint64(len(h.nanos[conn])) && h.nanos[conn][seq] > 0 {
			self.add(time.Duration(sp.dur - h.nanos[conn][seq]))
			trips.add(time.Duration(sp.dur))
		}
	}
	if len(self.ns) == 0 || h.lat == nil {
		return handler, request, 0, errors.New("no handler spans were recorded")
	}
	return mergeLat(h.lat), mergeLat(trips), mergeLat(self).quantileUS(0.5), nil
}
