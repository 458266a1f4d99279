package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"falcon/internal/loadgen"
)

// runLoadgen drives a `falcon serve` endpoint with closed- or open-loop load
// and reports per-round throughput, shed counts, and latency quantiles.
// Scenarios: closed (back-to-back clients), open (fixed-rate arrivals), knee
// (doubling QPS ladder to the saturation knee), overload (find the knee, then
// drive 2x it — graceful degradation check), retrystorm (aggressive retries
// against a small service window — convergence check).
//
// With -json the full report (falcon/loadgen/v1 schema) is written for
// offline diffing; latency histograms use the same log2 buckets as the bench
// harness.
func runLoadgen(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("loadgen", stderr)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of a falcon serve endpoint")
	scenario := fs.String("scenario", loadgen.ScenarioClosed, "closed | open | knee | overload | retrystorm")
	table := fs.String("table", "kv", "served table to drive")
	keys := fs.Uint64("keys", 1024, "key-space size (keys [0,n) are pre-seeded)")
	clients := fs.Int("clients", 8, "closed-loop concurrency / open-loop in-flight cap")
	requests := fs.Int("requests", 200, "closed-loop total request count")
	qps := fs.Float64("qps", 50, "open-loop target QPS (knee/overload: ladder start)")
	dur := fs.Duration("dur", time.Second, "open-loop round duration")
	writePct := fs.Int("write-pct", 50, "percent of requests that are adds (rest are gets)")
	deadlineMs := fs.Int("deadline-ms", 1000, "per-request deadline header")
	attempts := fs.Int("attempts", 5, "max client attempts per request (retries on shed/timeout)")
	seed := fs.Uint64("seed", 1, "PRNG seed for keys and retry jitter")
	idemBase := fs.Uint64("idembase", 0, "idempotency-key offset (distinct runs against one server must differ)")
	jsonPath := fs.String("json", "", "write the full report (falcon/loadgen/v1) to this file")
	if code, done := parse(fs, args); done {
		return code
	}

	cfg := loadgen.Config{
		BaseURL: *target, Table: *table, Keys: *keys,
		Clients: *clients, Requests: *requests, DeadlineMs: *deadlineMs,
		MaxAttempts: *attempts, Seed: *seed, WritePct: *writePct, IdemBase: *idemBase,
	}
	rep, err := loadgen.RunScenario(*scenario, cfg, *qps, *dur)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}

	fmt.Fprintf(stdout, "scenario %s against %s\n", rep.Scenario, rep.Target)
	if rep.KneeQPS > 0 {
		fmt.Fprintf(stdout, "saturation knee: %.1f QPS\n", rep.KneeQPS)
	}
	fmt.Fprintf(stdout, "%-20s %10s %8s %8s %8s %8s %8s %8s %10s %10s %10s %12s\n",
		"round", "target", "offered", "ok", "errors", "sheds", "retries", "replay",
		"achieved", "p50", "p99", "accepted-p99")
	for _, r := range rep.Rounds {
		fmt.Fprintf(stdout, "%-20s %10.1f %8d %8d %8d %8d %8d %8d %10.1f %10v %10v %12v\n",
			r.Label, r.TargetQPS, r.Offered, r.OK, r.Errors, r.Sheds, r.Retries, r.Replayed,
			r.AchievedQPS, time.Duration(r.P50Nanos), time.Duration(r.P99Nanos),
			time.Duration(r.AcceptedP99Nanos))
	}

	if *jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "loadgen: write report:", err)
			return 1
		}
		fmt.Fprintf(stdout, "report (%s) written to %s\n", rep.Schema, *jsonPath)
	}
	return 0
}
