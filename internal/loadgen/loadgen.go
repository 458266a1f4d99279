// Package loadgen drives a `falcon serve` endpoint with closed- and open-loop
// load, finds the saturation knee, and exercises overload and retry-storm
// scenarios. Reports carry the falcon/loadgen/v1 schema stamp and the same
// log2 latency histograms the bench harness uses.
package loadgen

import (
	"fmt"
	"sync"
	"time"

	"falcon/internal/bench"
	"falcon/internal/obs"
	"falcon/internal/server"
	"falcon/internal/server/client"
)

// Config parameterizes a load run.
type Config struct {
	// BaseURL is the target server root.
	BaseURL string
	// Table is the served table ops run against.
	Table string
	// Keys is the key-space size; keys [0, Keys) are pre-seeded.
	Keys uint64
	// Clients is the closed-loop concurrency (and the open loop's in-flight
	// cap). 0 means 8.
	Clients int
	// Requests is the closed-loop total request count. 0 means 200.
	Requests int
	// DeadlineMs is the per-request deadline header. 0 means 1000.
	DeadlineMs int
	// MaxAttempts bounds client retries per request. 0 means 5.
	MaxAttempts int
	// Seed drives every random choice (keys, jitter); same seed + same
	// server timing → same op stream.
	Seed uint64
	// WritePct is the percentage of requests that are adds (the rest are
	// gets). Defaults to 50.
	WritePct int
	// IdemBase offsets idempotency keys so scenarios on a shared server do
	// not collide.
	IdemBase uint64
}

func (c Config) withDefaults() Config {
	if c.Table == "" {
		c.Table = "kv"
	}
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.DeadlineMs <= 0 {
		c.DeadlineMs = 1000
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.WritePct <= 0 {
		c.WritePct = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Round is one measured load interval.
type Round struct {
	Label     string  `json:"label"`
	TargetQPS float64 `json:"target_qps,omitempty"`
	// Offered counts logical requests issued; Completed the ones that got a
	// terminal answer (OK or exhausted retries).
	Offered   uint64 `json:"offered"`
	Completed uint64 `json:"completed"`
	OK        uint64 `json:"ok"`
	Errors    uint64 `json:"errors"`
	// Sheds counts 429/503 responses observed (pre-retry); Retries the
	// extra attempts; Replayed the responses served from the idempotency
	// table.
	Sheds    uint64 `json:"sheds"`
	Retries  uint64 `json:"retries"`
	Replayed uint64 `json:"replayed"`
	// AchievedQPS is OK / wall-clock duration.
	AchievedQPS   float64 `json:"achieved_qps"`
	DurationNanos uint64  `json:"duration_nanos"`
	// Latency is the per-request (including retries) completion-time
	// distribution in host nanos, with the usual quantile columns.
	Latency  obs.Histogram `json:"latency,omitempty"`
	P50Nanos uint64        `json:"p50_nanos"`
	P95Nanos uint64        `json:"p95_nanos"`
	P99Nanos uint64        `json:"p99_nanos"`
	// AcceptedLatency restricts the distribution to requests that got an OK
	// answer — the population the no-queue-collapse criterion is judged on
	// (shed requests return fast by design and would flatter the numbers).
	AcceptedLatency  obs.Histogram `json:"accepted_latency,omitempty"`
	AcceptedP99Nanos uint64        `json:"accepted_p99_nanos"`
}

// Report is a `falcon loadgen` artifact.
type Report struct {
	// Schema is always bench.LoadgenSchema (falcon/loadgen/v1).
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	Target   string `json:"target"`
	// KneeQPS is the measured saturation knee (knee/overload scenarios).
	KneeQPS float64 `json:"knee_qps,omitempty"`
	Rounds  []Round `json:"rounds"`
}

// splitmix is the shared seeded PRNG step.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seed pre-populates the key space with puts (idempotent, so reruns against
// a warm server are safe).
func Seed(cfg Config) error {
	cfg = cfg.withDefaults()
	c := &client.Client{BaseURL: cfg.BaseURL, DeadlineMs: 10_000,
		MaxAttempts: 8, Backoff: client.NewBackoff(0, 0, cfg.Seed)}
	const batch = 64
	for lo := uint64(0); lo < cfg.Keys; lo += batch {
		hi := lo + batch
		if hi > cfg.Keys {
			hi = cfg.Keys
		}
		ops := make([]server.Op, 0, hi-lo)
		for k := lo; k < hi; k++ {
			ops = append(ops, server.Op{Op: "put", Table: cfg.Table, Key: k, Val: int64(k)})
		}
		// Seed idempotency keys live in a reserved high range.
		if _, err := c.Do(1<<63|lo, &server.TxnRequest{Ops: ops}); err != nil {
			return fmt.Errorf("seed batch %d: %w", lo, err)
		}
	}
	return nil
}

// genOp builds the n-th request of a seeded stream.
func genOp(cfg Config, rng *uint64) server.TxnRequest {
	key := splitmix(rng) % cfg.Keys
	if int(splitmix(rng)%100) < cfg.WritePct {
		return server.TxnRequest{Ops: []server.Op{{Op: "add", Table: cfg.Table, Key: key, Val: 1}}}
	}
	return server.TxnRequest{Ops: []server.Op{{Op: "get", Table: cfg.Table, Key: key}}}
}

// worker state for one closed-loop client.
type workerStats struct {
	ok, errs, replayed uint64
	lat, latOK         obs.Histogram
}

// observe records one terminal outcome into a worker's stats.
func (s *workerStats) observe(elapsed time.Duration, resp *server.TxnResponse, err error) {
	d := uint64(elapsed)
	s.lat.Observe(d)
	switch {
	case err != nil:
		s.errs++
	default:
		if resp.Replayed {
			s.replayed++
		}
		s.ok++
		s.latOK.Observe(d)
	}
}

// Closed runs a closed loop: Clients goroutines, each issuing its share of
// Requests back-to-back (a new request the moment the last completes).
func Closed(cfg Config, label string) Round {
	cfg = cfg.withDefaults()
	perClient := cfg.Requests / cfg.Clients
	if perClient == 0 {
		perClient = 1
	}
	stats := make([]workerStats, cfg.Clients)
	clients := make([]*client.Client, cfg.Clients)
	for i := range clients {
		clients[i] = &client.Client{
			BaseURL: cfg.BaseURL, DeadlineMs: cfg.DeadlineMs, MaxAttempts: cfg.MaxAttempts,
			Backoff: client.NewBackoff(0, 0, cfg.Seed+uint64(i)*0x10001),
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
			for n := 0; n < perClient; n++ {
				req := genOp(cfg, &rng)
				idem := cfg.IdemBase + uint64(i)*1_000_000 + uint64(n)
				t0 := time.Now()
				resp, err := clients[i].Do(idem, &req)
				stats[i].observe(time.Since(t0), resp, err)
			}
		}(i)
	}
	wg.Wait()
	return assemble(label, 0, uint64(perClient*cfg.Clients), stats, clients, time.Since(start))
}

// Open runs an open loop at targetQPS for dur: arrivals follow a seeded
// schedule regardless of completions (up to Clients in flight; beyond that
// arrivals count as offered-and-shed, the open-loop overload signature).
func Open(cfg Config, targetQPS float64, dur time.Duration, label string) Round {
	cfg = cfg.withDefaults()
	if targetQPS <= 0 {
		targetQPS = 100
	}
	interval := time.Duration(float64(time.Second) / targetQPS)
	sem := make(chan int, cfg.Clients) // tokens carry the client slot index
	for i := 0; i < cfg.Clients; i++ {
		sem <- i
	}
	stats := make([]workerStats, cfg.Clients)
	clients := make([]*client.Client, cfg.Clients)
	for i := range clients {
		clients[i] = &client.Client{
			BaseURL: cfg.BaseURL, DeadlineMs: cfg.DeadlineMs, MaxAttempts: cfg.MaxAttempts,
			Backoff: client.NewBackoff(0, 0, cfg.Seed+uint64(i)*0x10001),
		}
	}
	var wg sync.WaitGroup
	var offered, dropped uint64
	rng := cfg.Seed
	start := time.Now()
	next := start
	for n := 0; ; n++ {
		now := time.Now()
		if now.Sub(start) >= dur {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(interval)
		offered++
		req := genOp(cfg, &rng)
		idem := cfg.IdemBase + uint64(n)
		select {
		case slot := <-sem:
			wg.Add(1)
			go func(slot int, req server.TxnRequest, idem uint64) {
				defer wg.Done()
				defer func() { sem <- slot }()
				t0 := time.Now()
				resp, err := clients[slot].Do(idem, &req)
				stats[slot].observe(time.Since(t0), resp, err)
			}(slot, req, idem)
		default:
			// All clients busy: the arrival is lost offered load (the
			// closed-loop cap is what keeps an overloaded open loop from
			// unbounded goroutine growth).
			dropped++
		}
	}
	wg.Wait()
	r := assemble(label, targetQPS, offered, stats, clients, time.Since(start))
	r.Errors += dropped
	return r
}

func assemble(label string, target float64, offered uint64, stats []workerStats, clients []*client.Client, elapsed time.Duration) Round {
	r := Round{Label: label, TargetQPS: target, Offered: offered, DurationNanos: uint64(elapsed)}
	var merged, mergedOK obs.Histogram
	for i := range stats {
		r.OK += stats[i].ok
		r.Errors += stats[i].errs
		r.Replayed += stats[i].replayed
		merged.Merge(&stats[i].lat)
		mergedOK.Merge(&stats[i].latOK)
	}
	r.AcceptedLatency = mergedOK
	r.AcceptedP99Nanos = mergedOK.Quantile(0.99)
	for _, c := range clients {
		r.Sheds += c.Sheds
		r.Retries += c.Retries
	}
	r.Completed = r.OK + r.Errors
	if secs := elapsed.Seconds(); secs > 0 {
		r.AchievedQPS = float64(r.OK) / secs
	}
	r.Latency = merged
	r.P50Nanos = merged.Quantile(0.50)
	r.P95Nanos = merged.Quantile(0.95)
	r.P99Nanos = merged.Quantile(0.99)
	return r
}

// FindKnee walks a QPS ladder (doubling from startQPS) until the achieved
// rate falls below 95% of the target; the knee is the last rung's achieved
// QPS. Returns the knee and the rungs measured.
func FindKnee(cfg Config, startQPS float64, rung time.Duration) (float64, []Round) {
	cfg = cfg.withDefaults()
	if startQPS <= 0 {
		startQPS = 50
	}
	var rounds []Round
	knee := startQPS
	idem := cfg.IdemBase
	for target, i := startQPS, 0; i < 12; target, i = target*2, i+1 {
		c := cfg
		c.IdemBase = idem
		r := Open(c, target, rung, fmt.Sprintf("knee@%.0fqps", target))
		rounds = append(rounds, r)
		idem += r.Offered + 1
		knee = r.AchievedQPS
		if r.AchievedQPS < 0.95*target {
			break
		}
	}
	return knee, rounds
}

// Scenario names accepted by Run.
const (
	ScenarioClosed     = "closed"
	ScenarioOpen       = "open"
	ScenarioKnee       = "knee"
	ScenarioOverload   = "overload"
	ScenarioRetryStorm = "retrystorm"
)

// RunScenario executes one named scenario and assembles the report.
// Open-loop parameters: startQPS seeds the knee ladder, dur is the
// per-round duration.
func RunScenario(scenario string, cfg Config, startQPS float64, dur time.Duration) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Schema: bench.LoadgenSchema, Scenario: scenario, Target: cfg.BaseURL}
	if err := Seed(cfg); err != nil {
		return nil, err
	}
	switch scenario {
	case ScenarioClosed:
		rep.Rounds = []Round{Closed(cfg, "closed")}
	case ScenarioOpen:
		rep.Rounds = []Round{Open(cfg, startQPS, dur, "open")}
	case ScenarioKnee:
		knee, rounds := FindKnee(cfg, startQPS, dur)
		rep.KneeQPS = knee
		rep.Rounds = rounds
	case ScenarioOverload:
		knee, rounds := FindKnee(cfg, startQPS, dur)
		rep.KneeQPS = knee
		over := cfg
		over.IdemBase = cfg.IdemBase + 1<<40
		rep.Rounds = append(rounds, Open(over, 2*knee, dur, "overload@2x-knee"))
	case ScenarioRetryStorm:
		// A burst of clients with aggressive retries against a small window:
		// convergence means the storm drains (high terminal success) instead
		// of compounding.
		storm := cfg
		storm.MaxAttempts = 8
		rep.Rounds = []Round{Closed(storm, "retrystorm")}
	default:
		return nil, fmt.Errorf("loadgen: unknown scenario %q", scenario)
	}
	return rep, nil
}
