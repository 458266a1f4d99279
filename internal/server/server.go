package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the pool size; each pool worker is pinned to the engine
	// worker of the same id, so Workers must not exceed the engine's
	// configured Threads. 0 means all engine threads.
	Workers int
	// QueueDepth bounds admitted-but-unfinished requests (queued + running);
	// 0 means 4× Workers.
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
	// Stop, when non-nil, is the shared drain flag: once raised (SIGTERM),
	// admission refuses new requests while in-flight ones finish. A nil
	// Stop gets a private flag.
	Stop *bench.StopFlag
}

// pending is one admitted request waiting for a pool worker.
type pending struct {
	req      *TxnRequest
	idemKey  uint64
	readOnly bool
	deadline time.Time
	enqueued time.Time
	endpoint string
	done     chan result
}

type result struct {
	resp   *TxnResponse
	status int
}

// Server is the admission-controlled serving front-end over one engine.
type Server struct {
	e   *core.Engine
	cfg Config
	adm *admission
	// execMu serializes request execution (read side) against observability
	// snapshots (write side): the engine's phase sets and WAL gauges are
	// single-owner accumulators whose snapshot contract is quiescence, so
	// /metrics takes the write lock to get a true quiescent point.
	execMu sync.RWMutex
	// gate orders enqueues against drain: handlers enqueue under the read
	// lock, and Drain takes the write lock after raising the flag, so once
	// Drain proceeds no request can slip into the queue behind the exiting
	// workers.
	gate     sync.RWMutex
	queue    chan *pending
	quit     chan struct{}
	quitOnce sync.Once
	stop     *bench.StopFlag
	wg       sync.WaitGroup

	statsMu   sync.Mutex
	endpoints map[string]*endpointCounters
}

// endpointCounters is the live accumulator behind obs.EndpointStats.
type endpointCounters struct {
	obs.EndpointStats
	latency obs.Histogram
}

// New builds a Server over an already-opened engine (which must include the
// idempotency table — WithIdemTable) and starts its worker pool.
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
	stop := cfg.Stop
	if stop == nil {
		stop = &bench.StopFlag{}
	}
	s := &Server{
		e:         e,
		cfg:       cfg,
		adm:       newAdmission(cfg.QueueDepth, cfg.Workers, cfg.SeedServiceNanos),
		queue:     make(chan *pending, cfg.QueueDepth),
		quit:      make(chan struct{}),
		stop:      stop,
		endpoints: map[string]*endpointCounters{},
	}
	e.Obs().Register("server", s.collect)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s, nil
}

// Config returns the effective configuration: cfg as given to New with the
// defaults (pool size, queue depth, deadline) filled in.
func (s *Server) Config() Config { return s.cfg }

// Engine returns the served engine.
func (s *Server) Engine() *core.Engine { return s.e }

// Stop returns the drain flag (shared with bench.Run when Config.Stop was).
func (s *Server) Stop() *bench.StopFlag { return s.stop }

func (s *Server) worker(w int) {
	defer s.wg.Done()
	for {
		select {
		case p := <-s.queue:
			s.serve(w, p)
		case <-s.quit:
			// Drain started: finish whatever is still queued (those requests
			// were admitted before the flag rose), then exit.
			for {
				select {
				case p := <-s.queue:
					s.serve(w, p)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) serve(w int, p *pending) {
	start := time.Now()
	defer s.adm.release()
	if start.After(p.deadline) {
		s.count(p.endpoint, func(c *endpointCounters) { c.Expired++ })
		p.done <- result{&TxnResponse{Outcome: "error", Error: "deadline expired in queue"}, http.StatusGatewayTimeout}
		return
	}
	canceled := func() bool { return time.Now().After(p.deadline) }
	s.execMu.RLock()
	var resp *TxnResponse
	var err error
	if p.readOnly {
		resp, err = ApplyRO(s.e, w, p.req, canceled)
	} else {
		resp, err = Apply(s.e, w, p.idemKey, p.req, canceled)
	}
	s.execMu.RUnlock()
	if s.cfg.ServiceFloor > 0 {
		if pad := s.cfg.ServiceFloor - time.Since(start); pad > 0 {
			time.Sleep(pad)
		}
	}
	service := uint64(time.Since(start))
	s.adm.observe(service)

	var res result
	switch {
	case err == nil:
		res = result{resp, http.StatusOK}
		s.count(p.endpoint, func(c *endpointCounters) {
			c.OK++
			if resp.Replayed {
				c.Replayed++
			}
			c.latency.Observe(service)
		})
	case err == core.ErrCanceled || time.Now().After(p.deadline):
		s.count(p.endpoint, func(c *endpointCounters) { c.Expired++ })
		res = result{&TxnResponse{Outcome: "error", Error: "deadline expired"}, http.StatusGatewayTimeout}
	default:
		status := http.StatusInternalServerError
		if err == core.ErrDuplicateKey {
			status = http.StatusConflict
		}
		s.count(p.endpoint, func(c *endpointCounters) { c.Errors++ })
		res = result{&TxnResponse{Outcome: "error", Error: err.Error()}, status}
	}
	p.done <- res
}

// count applies fn to the endpoint's live counters under the stats lock.
func (s *Server) count(endpoint string, fn func(*endpointCounters)) {
	s.statsMu.Lock()
	c := s.endpoints[endpoint]
	if c == nil {
		c = &endpointCounters{}
		s.endpoints[endpoint] = c
	}
	fn(c)
	s.statsMu.Unlock()
}

// collect is the registry collector contributing Snapshot.Server.
func (s *Server) collect(snap *obs.Snapshot) {
	sv := &obs.ServerStats{
		Endpoints:       map[string]obs.EndpointStats{},
		QueueDepth:      uint64(max64(s.adm.depth.Load(), 0)),
		QueueCap:        uint64(s.cfg.QueueDepth),
		Workers:         uint64(s.cfg.Workers),
		EstServiceNanos: s.adm.ewma.Load(),
		Draining:        s.adm.draining.Load(),
	}
	s.statsMu.Lock()
	for name, c := range s.endpoints {
		ep := c.EndpointStats
		ep.Latency = c.latency.Dump()
		sv.Endpoints[name] = ep
	}
	s.statsMu.Unlock()
	snap.Server = sv
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Handler returns the HTTP mux: /v1/txn, /v1/read, /metrics, /healthz,
// /readyz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/txn", func(w http.ResponseWriter, r *http.Request) { s.handleTxn(w, r, false) })
	mux.HandleFunc("/v1/read", func(w http.ResponseWriter, r *http.Request) { s.handleTxn(w, r, true) })
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.stop.Stopped() || s.adm.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	return mux
}

func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request, readOnly bool) {
	endpoint := "/v1/txn"
	if readOnly {
		endpoint = "/v1/read"
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.count(endpoint, func(c *endpointCounters) { c.Requests++ })

	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		s.replyError(w, endpoint, http.StatusBadRequest, err)
		return
	}
	req, err := ParseRequest(body)
	if err != nil {
		s.replyError(w, endpoint, http.StatusBadRequest, err)
		return
	}
	var idemKey uint64
	if !readOnly {
		idemKey, err = strconv.ParseUint(r.Header.Get("Idempotency-Key"), 10, 64)
		if err != nil {
			s.replyError(w, endpoint, http.StatusBadRequest,
				fmt.Errorf("missing or malformed Idempotency-Key header"))
			return
		}
	}
	now := time.Now()
	deadline := now.Add(s.cfg.DefaultDeadline)
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseUint(h, 10, 32)
		if err != nil {
			s.replyError(w, endpoint, http.StatusBadRequest, fmt.Errorf("malformed X-Deadline-Ms"))
			return
		}
		deadline = now.Add(time.Duration(ms) * time.Millisecond)
	}

	p := &pending{
		req: req, idemKey: idemKey, readOnly: readOnly,
		deadline: deadline, enqueued: now, endpoint: endpoint,
		done: make(chan result, 1),
	}
	s.gate.RLock()
	// The drain flag sheds before the admission bookkeeping runs.
	if s.stop.Stopped() {
		s.gate.RUnlock()
		s.shed(w, endpoint, shedDraining, s.adm.estWait(1))
		return
	}
	reason, wait := s.adm.admit(now, deadline)
	if reason != shedNone {
		s.gate.RUnlock()
		s.shed(w, endpoint, reason, wait)
		return
	}
	s.queue <- p // admit() bounded the depth, so the buffer always has room
	s.gate.RUnlock()
	res := <-p.done
	writeJSON(w, res.status, res.resp)
}

// shed writes an admission rejection with Retry-After hints (whole seconds
// per RFC 9110, plus a millisecond-precision extension header for clients
// that can use it).
func (s *Server) shed(w http.ResponseWriter, endpoint string, reason shedReason, wait time.Duration) {
	s.count(endpoint, func(c *endpointCounters) {
		switch reason {
		case shedDraining:
			c.ShedDraining++
		case shedQueue:
			c.ShedQueue++
		case shedDeadline:
			c.ShedDeadline++
		}
	})
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

func (s *Server) replyError(w http.ResponseWriter, endpoint string, status int, err error) {
	s.count(endpoint, func(c *endpointCounters) { c.Errors++ })
	writeJSON(w, status, &TxnResponse{Outcome: "error", Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleMetrics serves the Prometheus exposition. It quiesces the request
// path (write lock on execMu) so the single-owner engine accumulators are
// coherent — the same contract bench.Run's snapshots rely on.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.execMu.Lock()
	snap := s.e.ObsSnapshot()
	s.execMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = obs.WritePrometheus(w, snap, nil)
}

// Snapshot returns a quiesced observability snapshot (the same view
// /metrics serves).
func (s *Server) Snapshot() obs.Snapshot {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	return s.e.ObsSnapshot()
}

// Drain performs the graceful shutdown: raise the stop flag (no new
// admissions), wait for in-flight requests to finish (bounded by timeout),
// then seal the group-commit epoch and sync the device so every
// acknowledged commit is durable. Returns false if in-flight work was still
// running at the timeout.
func (s *Server) Drain(timeout time.Duration) bool {
	s.stop.Stop()
	s.adm.draining.Store(true)
	// Wait out in-flight enqueues: after this, every admitted request is in
	// the queue and no new one can enter (handlers re-check the flag under
	// the read lock).
	s.gate.Lock()
	s.gate.Unlock() //nolint:staticcheck // empty critical section is the barrier
	s.quitOnce.Do(func() { close(s.quit) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
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
