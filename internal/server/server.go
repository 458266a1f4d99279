package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"falcon/internal/core"
	"falcon/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of engine workers requests may run on at once
	// (ids 0..Workers-1), so Workers must not exceed the engine's configured
	// Threads. 0 means all engine threads.
	Workers int
	// QueueDepth bounds admitted-but-unfinished requests (waiting for an
	// engine worker + running); 0 means 4× Workers.
	QueueDepth int
	// DefaultDeadline applies when a request carries no X-Deadline-Ms
	// header; 0 means 1s.
	DefaultDeadline time.Duration
	// ServiceFloor, when > 0, pads every accepted request's service time up
	// to this duration. It pins the admission controller's operating point
	// for load tests: with a floor, saturation QPS is Workers/floor
	// regardless of host speed, and service time dominates scheduler jitter.
	ServiceFloor time.Duration
	// SeedServiceNanos seeds the EWMA service-time estimate before the
	// first completion; 0 means 1ms.
	SeedServiceNanos uint64
}

// endpoint is the live accumulator behind one obs.EndpointStats. The counters
// are bumped from every connection's goroutine, so they are atomics; only the
// latency histogram, which moves several words per sample, takes a lock.
type endpoint struct {
	name     string
	readOnly bool

	requests, ok, errors, expired, replayed atomic.Uint64
	shedQueue, shedDeadline, shedDraining   atomic.Uint64

	latMu   sync.Mutex
	latency obs.Histogram
}

func (ep *endpoint) stats() obs.EndpointStats {
	ep.latMu.Lock()
	defer ep.latMu.Unlock()
	return obs.EndpointStats{
		Requests: ep.requests.Load(), OK: ep.ok.Load(), Errors: ep.errors.Load(),
		ShedQueue: ep.shedQueue.Load(), ShedDeadline: ep.shedDeadline.Load(), ShedDraining: ep.shedDraining.Load(),
		Expired: ep.expired.Load(), Replayed: ep.replayed.Load(),
		Latency: ep.latency,
	}
}

// Server is the admission-controlled serving front-end over one engine.
//
// A request runs to completion on the goroutine net/http gave its
// connection: it is decoded there, takes the id of a free engine worker from
// slots, runs its transaction as that worker, puts the id back and writes its
// reply. The engine's per-thread log windows (the paper's D1) make the thread
// that begins a transaction the one that commits it; handing the request to
// another goroutine and its result back would add two scheduler round trips
// to every request for nothing the engine needs.
type Server struct {
	e   *core.Engine
	cfg Config
	adm *admission
	// execMu serializes request execution (read side) against observability
	// snapshots (write side): the engine's phase sets and WAL gauges are
	// single-owner accumulators whose snapshot contract is quiescence, so
	// /metrics takes the write lock to get a true quiescent point.
	execMu sync.RWMutex
	// slots holds the ids of the engine workers no request is running on. An
	// id is in the channel or in exactly one request's hands, which is the
	// engine's one-writer-per-worker rule; requests that find it empty wait in
	// arrival order, and admission has already bounded how many can.
	slots chan int
	// gate orders admission against drain: handlers join inflight under the
	// read lock, and Drain takes the write lock after raising the flag, so
	// once Drain waits on inflight no request can still join it.
	gate     sync.RWMutex
	inflight sync.WaitGroup
	states   sync.Pool // *txnState

	txn, read endpoint
}

// New builds a Server over an already-opened engine (which must include the
// idempotency table — WithIdemTable).
func New(e *core.Engine, cfg Config) (*Server, error) {
	if e.Table(IdemTable) == nil {
		return nil, fmt.Errorf("server: engine has no %s table (see WithIdemTable)", IdemTable)
	}
	if cfg.Workers <= 0 || cfg.Workers > e.Config().Threads {
		cfg.Workers = e.Config().Threads
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = time.Second
	}
	if cfg.SeedServiceNanos == 0 {
		cfg.SeedServiceNanos = uint64(time.Millisecond)
	}
	if cfg.ServiceFloor > 0 && cfg.SeedServiceNanos < uint64(cfg.ServiceFloor) {
		cfg.SeedServiceNanos = uint64(cfg.ServiceFloor)
	}
	s := &Server{
		e:     e,
		cfg:   cfg,
		adm:   newAdmission(cfg.QueueDepth, cfg.Workers, cfg.SeedServiceNanos),
		slots: make(chan int, cfg.Workers),
		txn:   endpoint{name: "/v1/txn"},
		read:  endpoint{name: "/v1/read", readOnly: true},
	}
	s.states.New = func() any {
		st := new(txnState)
		st.expired = func() bool { return time.Now().After(st.deadline) }
		return st
	}
	for w := 0; w < cfg.Workers; w++ {
		s.slots <- w
	}
	return s, nil
}

// Config returns the effective configuration: cfg as given to New with the
// defaults (workers, queue depth, deadline) filled in.
func (s *Server) Config() Config { return s.cfg }

// Engine returns the served engine.
func (s *Server) Engine() *core.Engine { return s.e }

var (
	errExpiredInQueue = errors.New("deadline expired in queue")
	errExpired        = errors.New("deadline expired")
)

// run executes an admitted request's transaction on the caller's goroutine
// as whichever engine worker is free, and gives back what admission and the
// slot took before the caller writes the reply. A nil error means st holds
// the committed outcome; otherwise status is the reply's.
func (s *Server) run(ep *endpoint, st *txnState, idemKey uint64) (status int, err error) {
	w := <-s.slots
	defer func() {
		if p := recover(); p != nil {
			// A transaction that panics (a full index, after the publish
			// point) leaves the engine in a state nobody has reasoned about.
			// net/http would recover the panic on this goroutine, log it and
			// go on serving; raise it where nothing recovers instead, and
			// keep the worker id out of other hands until the process is gone.
			go panic(fmt.Sprintf("%v [raised again off the connection's goroutine]\n\n%s", p, debug.Stack()))
			select {}
		}
		s.slots <- w
		s.adm.release()
		s.inflight.Done()
	}()
	start := time.Now()
	if start.After(st.deadline) {
		ep.expired.Add(1)
		return http.StatusGatewayTimeout, errExpiredInQueue
	}
	s.execMu.RLock()
	if ep.readOnly {
		err = st.applyRO(s.e, w, &st.req, st.expired)
	} else {
		err = st.apply(s.e, w, idemKey, &st.req, st.expired)
	}
	s.execMu.RUnlock()
	if s.cfg.ServiceFloor > 0 {
		if pad := s.cfg.ServiceFloor - time.Since(start); pad > 0 {
			time.Sleep(pad)
		}
	}
	service := uint64(time.Since(start))
	s.adm.observe(service)

	if err == nil {
		ep.ok.Add(1)
		if st.replayed {
			ep.replayed.Add(1)
		}
		ep.latMu.Lock()
		ep.latency.Observe(service)
		ep.latMu.Unlock()
		return http.StatusOK, nil
	}
	if status = statusOf(err); status == http.StatusGatewayTimeout {
		ep.expired.Add(1)
		return status, errExpired
	}
	ep.errors.Add(1)
	return status, err
}

// collect reads the server's counters and admission gauges for
// Snapshot.Server.
func (s *Server) collect() *obs.ServerStats {
	sv := &obs.ServerStats{
		Endpoints:       map[string]obs.EndpointStats{},
		QueueDepth:      uint64(max(s.adm.depth.Load(), 0)),
		QueueCap:        uint64(s.cfg.QueueDepth),
		Workers:         uint64(s.cfg.Workers),
		EstServiceNanos: s.adm.ewma.Load(),
		Draining:        s.adm.draining.Load(),
	}
	for _, ep := range []*endpoint{&s.txn, &s.read} {
		if st := ep.stats(); st.Requests > 0 { // an endpoint appears with its first request
			sv.Endpoints[ep.name] = st
		}
	}
	return sv
}

// Handler returns the HTTP mux: /v1/txn, /v1/read, /metrics, /healthz,
// /readyz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(s.txn.name, func(w http.ResponseWriter, r *http.Request) { s.handleTxn(w, r, &s.txn) })
	mux.HandleFunc(s.read.name, func(w http.ResponseWriter, r *http.Request) { s.handleTxn(w, r, &s.read) })
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.adm.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// maxBody bounds a request body: a larger one is refused, not cut short.
// maxPooledBody bounds the body buffer a state may take back into the pool,
// so that one huge request does not pin its buffers.
const maxBody, maxPooledBody = 1 << 20, 64 << 10

// readBody reads the request's body into st.body. On failure it returns the
// status to refuse the request with.
func (st *txnState) readBody(w http.ResponseWriter, r *http.Request) (int, error) {
	n := r.ContentLength
	switch {
	case n > maxBody:
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body of %d bytes is over the limit of %d", n, maxBody)
	case n >= 0: // net/http hands out no more than the declared length
		st.body = sized(st.body, int(n))
		if _, err := io.ReadFull(r.Body, st.body); err != nil {
			return http.StatusBadRequest, err
		}
		return 0, nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	switch {
	case err == nil:
		st.body = body
		return 0, nil
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request, ep *endpoint) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ep.requests.Add(1)
	st := s.states.Get().(*txnState)
	defer func() {
		if cap(st.body) <= maxPooledBody {
			s.states.Put(st)
		}
	}()

	if status, err := st.readBody(w, r); err != nil {
		replyError(w, ep, status, err)
		return
	}
	err := parse(&st.req, st.body)
	if err == nil && ep.readOnly {
		err = getsOnly(&st.req)
	}
	if err != nil {
		replyError(w, ep, http.StatusBadRequest, err)
		return
	}
	var idemKey uint64
	if !ep.readOnly {
		idemKey, err = strconv.ParseUint(r.Header.Get("Idempotency-Key"), 10, 64)
		if err != nil {
			replyError(w, ep, http.StatusBadRequest,
				fmt.Errorf("missing or malformed Idempotency-Key header"))
			return
		}
	}
	now := time.Now()
	st.deadline = now.Add(s.cfg.DefaultDeadline)
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseUint(h, 10, 32)
		if err != nil {
			replyError(w, ep, http.StatusBadRequest, fmt.Errorf("malformed X-Deadline-Ms"))
			return
		}
		st.deadline = now.Add(time.Duration(ms) * time.Millisecond)
	}

	s.gate.RLock()
	reason, wait := s.adm.admit(now, st.deadline)
	if reason != shedNone {
		s.gate.RUnlock()
		s.shed(w, ep, reason, wait)
		return
	}
	s.inflight.Add(1)
	s.gate.RUnlock()

	status, err := s.run(ep, st, idemKey)
	if err != nil {
		writeJSON(w, status, &TxnResponse{Outcome: "error", Error: err.Error()})
		return
	}
	st.out = appendOK(st.out[:0], st.results, st.digest, st.replayed)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(st.out) // a client that has gone away is not the server's failure
}

// shed writes an admission rejection with Retry-After hints (whole seconds
// per RFC 9110, plus a millisecond-precision extension header for clients
// that can use it).
func (s *Server) shed(w http.ResponseWriter, ep *endpoint, reason shedReason, wait time.Duration) {
	switch reason {
	case shedDraining:
		ep.shedDraining.Add(1)
	case shedQueue:
		ep.shedQueue.Add(1)
	case shedDeadline:
		ep.shedDeadline.Add(1)
	}
	if wait <= 0 {
		wait = time.Duration(s.adm.ewma.Load())
	}
	secs := int64(wait / time.Second)
	if wait%time.Second != 0 {
		secs++ // round up: "retry no sooner than"
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("Retry-After-Ms", strconv.FormatInt(int64(wait/time.Millisecond)+1, 10))
	status := http.StatusTooManyRequests
	msg := "shed: queue full"
	switch reason {
	case shedDeadline:
		msg = "shed: deadline unmeetable"
	case shedDraining:
		status = http.StatusServiceUnavailable
		msg = "shed: draining"
	}
	writeJSON(w, status, &TxnResponse{Outcome: "error", Error: msg})
}

// replyError refuses a request that never reached admission.
func replyError(w http.ResponseWriter, ep *endpoint, status int, err error) {
	ep.errors.Add(1)
	writeJSON(w, status, &TxnResponse{Outcome: "error", Error: err.Error()})
}

// jsonContentType is shared by every reply; net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeJSON renders the replies that are not a commit with encoding/json.
func writeJSON(w http.ResponseWriter, status int, v *TxnResponse) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleMetrics serves Snapshot in the Prometheus exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = obs.WritePrometheus(w, snap, nil)
}

// Snapshot returns the view /metrics serves: the engine's snapshot, taken
// with the request path quiesced (write lock on execMu) so the single-owner
// engine accumulators are coherent — the same contract bench.Run's snapshots
// rely on — plus the server's own counters, which are atomics.
func (s *Server) Snapshot() obs.Snapshot {
	s.execMu.Lock()
	snap := s.e.ObsSnapshot()
	s.execMu.Unlock()
	snap.Server = s.collect()
	return snap
}

// Drain performs the graceful shutdown: raise the drain flag (no new
// admissions), wait for in-flight requests to finish (bounded by timeout),
// then seal the group-commit epoch and sync the device so every
// acknowledged commit is durable. Returns false if in-flight work was still
// running at the timeout.
func (s *Server) Drain(timeout time.Duration) bool {
	s.adm.draining.Store(true)
	// Wait out in-flight admissions: after this, every admitted request has
	// joined inflight and no new one can (handlers re-check the flag under
	// the read lock).
	s.gate.Lock()
	s.gate.Unlock() //nolint:staticcheck // empty critical section is the barrier
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	drained := true
	select {
	case <-done:
	case <-time.After(timeout):
		drained = false
	}
	if drained {
		// Quiescent: seal every open durability epoch and flush the device.
		s.e.Sync(s.e.Clock(0))
	}
	return drained
}
