// Command benchmark is the repository's performance ledger: four fixed
// workloads, each measured end to end with tracing off and layer by layer in
// a separate traced pass, on the host clock and on the simulator's virtual
// clock. See README.md in this directory and BENCHMARK.json at the root.
//
//	bash benchmark/run.sh                              # all workloads, both passes
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh --aa 5                       # repeatability against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"falcon/internal/index"
	"falcon/internal/workload/tpcc"
)

// setupRepeats is how often an untraced run sets up; setup_s is the median.
const setupRepeats = 5

// tracedShare is the share of --seconds a traced run spends on its untraced
// reference, and again on the traced repeat of the same op stream; the replay
// ladder takes about as long as the rest.
const tracedShare = 0.4

func main() {
	runtime.GOMAXPROCS(threads)
	opt := options{scale: 1, out: filepath.Join("benchmark", "out")}
	var trace, aa int
	var spec bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run (default: all, each in its own process)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.IntVar(&aa, "aa", 0, "run the untraced suite N times on this tree and compare the spreads with the bounds")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json from the metric tables and exit")
	flag.Parse()
	opt.trace = trace != 0
	var err error
	switch {
	case spec:
		_, err = os.Stdout.Write(specJSON())
	case opt.seconds <= 0:
		err = fmt.Errorf("--seconds %v: must be positive", opt.seconds)
	case aa > 0:
		err = runAA(opt, aa)
	case opt.workload == "":
		err = runAll(opt)
	default:
		var res *result
		if res, err = runOne(opt, os.Stdout); err == nil {
			err = finish(opt, res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// finish writes the result file and prints the result as the last line.
func finish(opt options, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	t := 0
	if opt.trace {
		t = 1
	}
	path := filepath.Join(opt.out, fmt.Sprintf("%s.trace%d.json", opt.workload, t))
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n%s\n", path, line)
	if !res.Correct {
		return errors.New("the run is not correct (see above)")
	}
	return nil
}

func runOne(opt options, w io.Writer) (*result, error) {
	var why string
	for _, d := range workloads {
		if d.name == opt.workload {
			why = d.why
		}
	}
	if why == "" {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	fmt.Fprintf(w, "workload %s: %s\n", opt.workload, why)
	fmt.Fprintf(w, "seed %d, %.3g s, GOMAXPROCS %d, %d workers or connections, trace %v\n",
		opt.seed, opt.seconds, threads, threads, opt.trace)
	if opt.trace {
		return tracedRun(opt, w)
	}
	return untracedRun(opt, w)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// untracedRun measures the end-to-end metrics, every one over the whole
// measured run, so that a stall shows. It runs on a fresh process image: the
// first set-up is the one measured, and the set-ups repeated for the median
// of setup_s come after the peak resident set has been read.
func untracedRun(opt options, w io.Writer) (*result, error) {
	setups := make([]float64, 0, setupRepeats)
	setUp := func() (workload, error) {
		wl, err := newWorkload(opt)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := wl.setup(); err != nil {
			wl.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return wl, nil
	}
	wl, err := setUp()
	if err != nil {
		return nil, err
	}
	defer wl.close()
	// The peak resident set is read before the check builds its own golden
	// copies, and the run starts from a collected heap: without that the peak
	// follows the phase of the collector, by a tenth from run to run.
	runtime.GC()
	st, runErr := runFor(wl, seconds(opt.seconds))
	peak := readUsage().maxRSSMiB
	rep, checkErr := wl.check()
	for len(setups) < setupRepeats {
		again, err := setUp()
		if err != nil {
			return nil, err
		}
		again.close()
	}

	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("throughput_ops_s", st.opsPerSec())
	m.set("latency_p50_us", st.lat.quantileUS(0.5))
	m.set("peak_rss_mib", peak)
	m.set("virt_mtxn_s", st.engine.virtMTxnPerSec())
	m.set("virt_media_bytes_per_op", st.engine.mediaBytesPerCommit())
	fmt.Fprintf(w, "set-ups: %.3f s (each build + load + warm-up; the median is setup_s)\n", setups)
	return report(w, m, st, rep, runErr, checkErr)
}

// tracedRun measures the per-layer metrics: spans around the benchmark's own
// calls, counter deltas over the traced run, a CPU profile attributed to
// layers, and the replay ladder.
func tracedRun(opt options, w io.Writer) (*result, error) {
	wl, err := newWorkload(opt)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	if err := wl.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// The untraced reference and the traced run start from the same state and
	// run the same op stream for the same time.
	part := seconds(opt.seconds * tracedShare)
	ref, refErr := wl.run(part, nil)
	if err := wl.rewind(); err != nil {
		return nil, fmt.Errorf("rewind: %w", err)
	}

	rec := newSpanRecorder(60_000)
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	st, runErr := wl.run(part, rec)
	pprof.StopCPUProfile()
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)

	steps, ladderErr := runLadder(opt, rec)
	rep, checkErr := wl.check()

	m := newMetricSet(perLayer)
	for _, name := range notApplicable(opt.workload) {
		m.set(name, 0)
	}
	m.merge(steps)
	m.merge(st.extra)
	counterMetrics(m, st.engine)
	ops := float64(max(st.ops, 1))
	served, isServed := wl.(*serveWorkload)
	if !isServed {
		m.set("core.virt_lat_p99_ns", st.virtLat.quantileUS(0.99)*1e3)
	}
	m.set("core.recover_host_ms", float64(rep.recoverHost.Microseconds())/1e3)
	m.set("core.recover_virt_ms", float64(rep.recoverVirtualNanos)/1e6)
	m.set("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops)
	m.set("runtime.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
	m.set("runtime.gc_cpu_share", (gc1-gc0)/st.cpu.Seconds())
	m.set("bench.cpu_us_per_op", float64(ref.cpu.Microseconds())/float64(ref.ops))
	m.set("bench.failed_ops_share", float64(st.failed)/float64(max(st.attempted, 1)))
	m.set("bench.latency_p99_us", st.lat.quantileUS(0.99))
	m.set("bench.trace_overhead_share", 1-st.opsPerSec()/ref.opsPerSec())

	profile, profErr := parseCPUProfile(prof.Bytes())
	if profErr == nil {
		for layer, share := range profile.attribute() {
			m.set(layer+".host_share", share)
		}
	}
	m.set("bench.ledger_residual_share", m.vals["other.host_share"])
	var engineShare float64
	for _, layer := range enginePackages {
		engineShare += m.vals[layer+".host_share"]
	}
	var spanErr error
	tracks := []string{"worker 0", "worker 1", "", "", "replay ladder"}
	if isServed {
		tracks = []string{"connection 0", "connection 1", "server conn 0", "server conn 1", "replay ladder"}
		spanErr = serveLedger(m, served, rec)
	}
	tracePath := filepath.Join(opt.out, opt.workload+".trace.json")
	traceErr := rec.writeChromeTrace(tracePath, tracks)
	fmt.Fprintf(w, "trace file: %s (%d spans; open in Perfetto)\n", tracePath, len(rec.spans))
	fmt.Fprintf(w, "engine packages %v hold %.1f %% of the attributed host CPU\n", enginePackages, 100*engineShare)
	fmt.Fprintf(w, "untraced reference: %d ops in %.2f s; the figures below are of the traced run\n", ref.ops, ref.elapsed.Seconds())
	return report(w, m, st, rep, refErr, runErr, checkErr, ladderErr, profErr, spanErr, traceErr)
}

// counterMetrics derives the ratio metrics from the counter deltas of the
// traced run.
func counterMetrics(m *metricSet, win engineWindow) {
	div := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	s, mem, commits := win.snap, win.snap.Mem, win.snap.Commits
	m.set("pmem.cache_hit_ratio", div(mem.CacheHits, mem.CacheHits+mem.CacheMisses))
	m.set("pmem.media_writes_per_commit", div(mem.MediaWrites, commits))
	m.set("pmem.media_reads_per_commit", div(mem.MediaReads, commits))
	m.set("pmem.partial_write_share", div(mem.PartialBlockWrites, mem.MediaWrites))
	m.set("pmem.xpbuffer_merge_share", div(mem.XPBufferMerges, mem.ClwbWritebacks+mem.DirtyEvictions))
	m.set("pmem.clwb_per_commit", div(mem.ClwbWritebacks, commits))
	m.set("pmem.dirty_evictions_per_commit", div(mem.DirtyEvictions, commits))
	m.set("pmem.write_amp", mem.WriteAmplification())
	m.set("wal.bytes_per_commit", div(s.WAL.BytesLogged, commits))
	m.set("wal.overflow_share", div(s.WAL.Overflows, s.WAL.Commits))
	btree := map[string]bool{}
	for _, spec := range tpcc.TableSpecs(tpcc.Config{}) {
		btree[spec.Name] = spec.IndexKind == index.BTree
	}
	var probes, btreeProbes uint64
	for name, t := range s.Tables {
		probes += t.IndexProbes
		if btree[name] {
			btreeProbes += t.IndexProbes
		}
	}
	m.set("index.probes_per_commit", div(probes, commits))
	m.set("index.btree_probes_per_commit", div(btreeProbes, commits))
	m.set("core.abort_ratio", div(s.Aborts, commits))
	m.set("core.hot_hit_ratio", div(s.Hot.Hits, s.Hot.Hits+s.Hot.Misses))
	var txnNanos uint64
	for i := range virtPhases {
		txnNanos += s.PhaseNanos[i]
	}
	for i, p := range virtPhases {
		m.set("core.virt_phase_share."+p, div(s.PhaseNanos[i], txnNanos))
	}
}

// serveLedger fills the span-derived metrics of a serving workload and
// reconciles the replayed layers with the live round trip.
func serveLedger(m *metricSet, s *serveWorkload, rec *spanRecorder) error {
	handler, request, framingSelf, err := s.spans.framing(rec)
	if err != nil {
		return err
	}
	apply := m.vals["server.apply_ns"]
	if s.open {
		apply = m.vals["server.apply_ro_ns"]
	}
	m.set("server.handler_p50_us", handler.quantileUS(0.5))
	m.set("server.handler_p99_us", handler.quantileUS(0.99))
	m.set("server.self_us", handler.quantileUS(0.5)-apply/1e3)
	m.set("http.framing_self_us", framingSelf)
	explained := m.vals["http.null_rtt_us"] + (m.vals["server.parse_ns"]+apply+m.vals["server.encode_ns"])/1e3
	m.set("bench.ledger_residual_share", 1-explained/request.quantileUS(0.5))
	return nil
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// report prints the run and assembles its result; any error makes the run
// incorrect and is printed, the metrics still are.
func report(w io.Writer, m *metricSet, st runStats, rep checkReport, errs ...error) (*result, error) {
	fmt.Fprintf(w, "measured run: %d ops attempted, %d completed, %d failed in %.3f s\n",
		st.attempted, st.ops, st.failed, st.elapsed.Seconds())
	fmt.Fprintf(w, "latency: %v\n", st.lat)
	fmt.Fprintf(w, "durability check: crash, recovery in %v host / %.3f ms virtual (%d log records replayed), %d keys checked, %d skipped as ambiguous\n",
		rep.recoverHost.Round(time.Microsecond), float64(rep.recoverVirtualNanos)/1e6, rep.recordsReplayed, rep.keysChecked, rep.ambiguousKeysSkipped)
	m.print(w)
	values, err := m.finish()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: st.attempted, Failed: st.failed, Metrics: values}
	if st.attempted != st.ops+st.failed || st.attempted == 0 {
		errs = append(errs, fmt.Errorf("ops attempted %d != completed %d + failed %d", st.attempted, st.ops, st.failed))
	}
	if err := errors.Join(errs...); err != nil {
		res.Correct = false
		fmt.Fprintf(w, "NOT CORRECT: %v\n", err)
	}
	return res, nil
}
