package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef declares one metric: BENCHMARK.json carries name, unit,
// direction (and the bound of an end-to-end metric); the clock and the
// meaning live here and in the README.
type metricDef struct {
	name, unit, better string
	// clock is "host", "virtual" or "count".
	clock, what string
}

// workloadDef names a workload and records why it exists.
type workloadDef struct{ name, why string }

var workloads = []workloadDef{
	{"ycsb_a_zipf", "engine only, 50 MB of 1 KB tuples over a 2.5 MiB simulated cache, skewed point updates: pmem, wal, selective flush and hot-tuple tracking do the work; server and http do none"},
	{"tpcc_mix", "engine only, the paper's headline mix: B-tree inserts and scans, heap allocation, multi-table transactions and WAL overflow use index and heap unlike YCSB's hash point updates"},
	{"serve_closed_rw", "closed loop over real TCP, every request commits: JSON, admission, queue hop, idempotency row and net/http do the work and the engine about a twentieth"},
	{"serve_open_ro", "open loop at a fixed 16000 req/s of reads beside a 10 Hz /metrics scrape: no WAL and no idempotency row, so a commit gain must not show here and an HTTP gain must"},
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "host", "median of repeated set-ups: engine build, load or preload, server start, warm-up (the go build is not included)"},
	{"throughput_ops_s", "1/s", "higher", "host", "committed transactions or 200-OK responses of the whole measured run per second of it"},
	{"latency_p50_us", "us", "lower", "host", "median time of one op over the whole run, from exact samples: YCSB update (1 op in 16 sampled), TPC-C NewOrder, served add, and on the read-only open loop every get, from send to reply"},
	{"peak_rss_mib", "MiB", "lower", "host", "maximum resident set of the benchmark process after one set-up and the measured run"},
	{"virt_mtxn_s", "Mtxn/s", "higher", "virtual", "engine commits per virtual second: commits x workers / sum of per-worker clock advance, in millions (TPC-C: over the run's first epoch)"},
	{"virt_media_bytes_per_op", "B/op", "lower", "virtual", "bytes moved between the XPBuffer and the simulated media, written plus read, per engine commit (TPC-C: over the run's first epoch)"},
}

// hostShareLayers are the buckets of the CPU-profile attribution; their
// shares sum to 1.
var hostShareLayers = []string{
	"pmem", "sim", "wal", "index", "heap", "version", "cc", "workload", "core",
	"obs", "server", "http", "json", "loadgen", "runtime", "other",
}

// enginePackages are the layers the acceptance check sums as "the engine".
var enginePackages = []string{"pmem", "sim", "core", "wal", "index", "heap", "cc"}

// corePresets are the engine presets of the one-transaction ladder.
var corePresets = []string{"falcon", "falcon_gc", "inp", "outp", "zens"}

var virtPhases = []string{"exec", "cc", "log", "heap", "index", "flush", "abort", "groupwait"}

// perLayer lists the metrics of single layers; every workload reports all of
// them from its traced run.
var perLayer = buildPerLayer()

// notApplicable lists the per-layer metrics of layers a workload does not
// drive: a traced run reports these as 0. Every other declared metric must be
// measured, or the run fails.
func notApplicable(workload string) []string {
	openLoop := []string{
		"server.scrape_us", "loadgen.sched_late_p99_us", "loadgen.due_latency_p50_us", "loadgen.due_latency_p99_us",
		"loadgen.achieved_rate_share", "loadgen.slo_miss_share", "loadgen.backlog_max",
	}
	switch workload {
	case "serve_open_ro":
		return []string{"core.virt_lat_p99_ns"}
	case "serve_closed_rw":
		return append(openLoop, "core.virt_lat_p99_ns")
	}
	return append(openLoop,
		"server.handler_p50_us", "server.handler_p99_us", "server.self_us",
		"server.service_mean_us", "server.shed_share", "http.framing_self_us")
}

func buildPerLayer() []metricDef {
	ns := func(name, what string) metricDef { return metricDef{name, "ns", "lower", "host", what} }
	us := func(name, what string) metricDef { return metricDef{name, "us", "lower", "host", what} }
	cnt := func(name, unit, better, what string) metricDef { return metricDef{name, unit, better, "count", what} }
	m := []metricDef{
		ns("pmem.store64_ns", "replay: one 64 B store that misses the simulated cache"),
		ns("pmem.load64_ns", "replay: one 64 B load that misses"),
		ns("pmem.load64_hit_ns", "replay: one 64 B load that hits (1 MiB set)"),
		ns("pmem.store_clwb_ns", "replay: one 64 B store plus CLWB of its line"),
		ns("pmem.clwb_train_ns_per_line", "replay: CLWBTrain over a dirty 1 KB span, per line"),
		ns("pmem.sfence_ns", "replay: one SFence"),
		cnt("pmem.cache_hit_ratio", "ratio", "higher", "simulated cache hits / accesses over the traced run"),
		cnt("pmem.media_writes_per_commit", "1/op", "lower", "256 B media block writes per engine commit"),
		cnt("pmem.media_reads_per_commit", "1/op", "lower", "256 B media block reads per engine commit"),
		cnt("pmem.partial_write_share", "share", "lower", "media writes that needed a read-modify-write"),
		cnt("pmem.xpbuffer_merge_share", "share", "higher", "line write-backs merged into a buffered block"),
		cnt("pmem.clwb_per_commit", "1/op", "lower", "dirty lines written back by CLWB per engine commit"),
		cnt("pmem.dirty_evictions_per_commit", "1/op", "lower", "dirty lines evicted by capacity per engine commit"),
		cnt("pmem.write_amp", "ratio", "lower", "bytes to media / bytes stored"),
		{"sim.group_host_ratio", "ratio", "lower", "host", "replay: host time of a fixed YCSB cell under ParWorkers / free-running"},
		ns("wal.txn_ns", "replay: Begin + 1 KB AppendUpdate + Commit on one window"),
		cnt("wal.txn_allocs", "1/op", "lower", "heap allocations of that sequence"),
		ns("wal.txn_gc_ns", "replay: the same record through Publish + EnlistData + SealExpired on an EpochBoard"),
		cnt("wal.bytes_per_commit", "B/op", "lower", "log bytes per engine commit over the traced run"),
		cnt("wal.overflow_share", "share", "lower", "log records that spilled into the overflow region"),
		ns("index.hash_get_ns", "replay: hash Get of a present key"),
		ns("index.hash_insert_ns", "replay: hash Insert of a fresh key"),
		ns("index.btree_get_ns", "replay: B-tree Get of a present key"),
		ns("index.btree_insert_ns", "replay: B-tree Insert of a fresh key"),
		ns("index.btree_scan_ns_per_key", "replay: 20-key B-tree range scan, per key"),
		cnt("index.probes_per_commit", "1/op", "lower", "primary index probes per engine commit"),
		cnt("index.btree_probes_per_commit", "1/op", "lower", "index probes on B-tree tables per engine commit"),
		ns("heap.alloc_ns", "replay: heap Alloc of one slot"),
		ns("heap.write_payload_ns", "replay: WritePayload of a 1 KB tuple"),
		ns("heap.read_payload_ns", "replay: ReadPayload of a 1 KB tuple"),
		cnt("core.txn_allocs.falcon", "1/op", "lower", "heap allocations of one Falcon YCSB-A transaction"),
		cnt("core.abort_ratio", "ratio", "lower", "aborted attempts / commits over the traced run"),
		cnt("core.hot_hit_ratio", "ratio", "higher", "hot-tuple set hits / lookups"),
		{"core.virt_lat_p99_ns", "ns", "lower", "virtual", "99th percentile virtual time of one op"},
		{"core.recover_host_ms", "ms", "lower", "host", "core.Recover after the crash of the durability check"},
		{"core.recover_virt_ms", "ms", "lower", "virtual", "the same recovery on the virtual clock"},
		us("obs.snapshot_us", "replay: one Engine.ObsSnapshot"),
		us("server.handler_p50_us", "median of the server.handler span (middleware around ServeHTTP)"),
		us("server.handler_p99_us", "99th percentile of the same span"),
		us("server.self_us", "handler median minus the replayed Apply of the same request mix"),
		us("server.service_mean_us", "mean service time the server itself records"),
		ns("server.parse_ns", "replay: ParseRequest of a generated body"),
		ns("server.encode_ns", "replay: JSON encoding of a response"),
		ns("server.apply_ns", "replay: Apply of a fresh one-add request"),
		cnt("server.apply_allocs", "1/op", "lower", "heap allocations of that Apply"),
		ns("server.apply_replay_ns", "replay: Apply of an idempotency key already committed"),
		ns("server.apply_ro_ns", "replay: ApplyRO of a one-get request"),
		cnt("server.shed_share", "share", "lower", "requests refused by admission"),
		us("server.scrape_us", "median GET /metrics round trip during the run"),
		us("http.framing_self_us", "median over requests of round trip minus handler span"),
		us("http.null_rtt_us", "replay: round trip of the same body to a handler that only reads and answers"),
		us("loadgen.sched_late_p99_us", "open loop: 99th percentile of send time minus due time"),
		us("loadgen.due_latency_p50_us", "open loop: median time from a request's due time to its reply"),
		us("loadgen.due_latency_p99_us", "open loop: 99th percentile of the same"),
		cnt("loadgen.achieved_rate_share", "share", "higher", "open loop: achieved / target rate"),
		cnt("loadgen.slo_miss_share", "share", "lower", "open loop: requests over 5 ms from due, or failed"),
		cnt("loadgen.backlog_max", "count", "lower", "open loop: most requests due but not yet sent"),
		cnt("runtime.allocs_per_op", "1/op", "lower", "heap allocations per op over the traced run"),
		cnt("runtime.alloc_bytes_per_op", "B/op", "lower", "heap bytes allocated per op"),
		{"runtime.gc_cpu_share", "share", "lower", "host", "GC CPU / process CPU over the traced run"},
		{"bench.trace_overhead_share", "share", "lower", "host", "1 - traced / untraced throughput of the same process"},
		{"bench.ledger_residual_share", "share", "lower", "host", "serve: 1 - (null round trip + parse + Apply + encode) / median round trip; engine: other.host_share"},
		{"bench.cpu_us_per_op", "us/op", "lower", "host", "process user+system CPU per op, load generator included, over the untraced reference of the traced pass"},
		cnt("bench.failed_ops_share", "share", "lower", "failed / attempted ops of the traced run"),
		{"bench.latency_p99_us", "us", "lower", "host", "99th percentile of the end-to-end latency samples of the traced run"},
	}
	for _, p := range corePresets {
		m = append(m, ns("core.txn_ns."+p, "replay: one committed YCSB-A transaction on preset "+p+", one worker"))
	}
	for _, p := range corePresets[2:] {
		m = append(m, metricDef{"core.virt_mtxn_s." + p, "Mtxn/s", "lower", "virtual",
			"replay: virtual throughput of preset " + p + " (Falcon must stay above it)"})
	}
	m = append(m, metricDef{"core.virt_mtxn_s.falcon", "Mtxn/s", "higher", "virtual", "replay: virtual throughput of Falcon on the same cell"})
	for _, p := range virtPhases {
		m = append(m, metricDef{"core.virt_phase_share." + p, "share", "lower", "virtual", "share of transactional virtual time in phase " + p})
	}
	for _, l := range hostShareLayers {
		m = append(m, metricDef{l + ".host_share", "share", "lower", "host", "share of CPU-profile samples whose innermost owning frame is " + l})
	}
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects the values of one run against a declared list.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) { m.vals[name] = v }

func (m *metricSet) merge(o map[string]float64) {
	for k, v := range o {
		m.set(k, v)
	}
}

// finish checks that exactly the declared metrics were set, each to a number,
// and renders them.
func (m *metricSet) finish() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		out[d.name] = metricValue{v, d.unit}
	}
	for name := range m.vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

func (m *metricSet) print(w io.Writer) {
	for _, d := range m.defs {
		clock := d.clock + " clock"
		if d.clock == "count" {
			clock = "a count"
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-7s (%s, %s is better)\n", d.name, m.vals[d.name], d.unit, clock, d.better)
	}
}

// benchmarkFile is BENCHMARK.json as specJSON writes it.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}
