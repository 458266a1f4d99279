// falcon-hostbench measures the HOST cost of the simulation: wall-clock
// nanoseconds per simulated pmem operation, per YCSB transaction, and for
// the default falcon-sweep Figure-11 grid. Virtual-time results (the
// numbers the paper reports) are independent of everything measured here —
// this harness tracks how much sweep fits in a CI budget, and whether a
// change regressed the engine's host hot path.
//
// Results append to a JSON baseline file (default BENCH_hostperf.json).
// Each run adds one entry; speedups are reported against the file's first
// entry, so the first committed entry is the tracked baseline, while the
// -check regression gate compares against the best comparable entry. Compare
// runs with: jq '.runs[] | {label, grid_s, pmem_store64_ns}' BENCH_hostperf.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/pmem"
	"falcon/internal/sim"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// Run is one measurement session appended to the baseline file.
type Run struct {
	Label      string `json:"label"`
	Date       string `json:"date"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick,omitempty"`
	// WorkerPar records whether the timed cells ran their workers through
	// the deterministic group scheduler (-parworkers) instead of the default
	// free-running mode. The two modes are different simulated machines, so
	// entries are only comparable to entries with the same setting.
	WorkerPar bool `json:"worker_par,omitempty"`
	// GroupCommit records whether the timed cells committed through
	// leader-based group commit (-groupcommit). Like WorkerPar, entries are
	// only comparable to entries with the same setting.
	GroupCommit bool `json:"group_commit,omitempty"`
	// Host nanoseconds per simulated 64 B operation (32 MiB working set on
	// a 64 MiB device — miss-heavy, the expensive path).
	PmemStore64Ns   float64 `json:"pmem_store64_ns"`
	PmemLoad64Ns    float64 `json:"pmem_load64_ns"`
	PmemStoreCLWBNs float64 `json:"pmem_store_clwb_ns"`
	// One end-to-end YCSB-A Zipfian cell (50k records, 8 workers, 600 txns
	// + 150 warmup each): host seconds for the whole cell including load,
	// and host nanoseconds per measured transaction.
	YCSBCellS        float64 `json:"ycsb_cell_s"`
	YCSBCellNsPerTxn float64 `json:"ycsb_cell_host_ns_per_txn"`
	// Host seconds for the default falcon-sweep Figure-11 grid
	// (3 workloads x 5 engines x threads 2,4,8,12,16). Omitted by -quick.
	GridS float64 `json:"grid_s,omitempty"`
	// Speedup of this run's grid vs the file's first entry with a grid.
	GridSpeedupVsBase float64 `json:"grid_speedup_vs_baseline,omitempty"`
}

// Baseline is the tracked file layout.
type Baseline struct {
	Schema      string `json:"schema,omitempty"`
	Description string `json:"description"`
	Runs        []Run  `json:"runs"`
}

// parWorkers is set by -parworkers: timed cells run their workers through
// the deterministic group scheduler. cf carries the tool-shared flags,
// applied to every timed cell's engine config (-groupcommit) and to the
// extra untimed instrumented cell (-trace*, -stats, -contend, -prom).
var (
	parWorkers bool
	cf         *bench.CommonFlags
)

// gridRegressionLimit is the -check gate: the run fails when grid_s exceeds
// the best comparable entry by more than this factor.
const gridRegressionLimit = 1.10

// bestComparable returns the fastest gridded entry that timed the same
// machine as r — same worker scheduler, commit path and GOMAXPROCS — or nil.
// The gate measures against the best, not the first: the file's first entry
// is the pre-optimisation baseline, and a gate anchored there lets every
// gain since be given back unnoticed.
func bestComparable(runs []Run, r Run) *Run {
	var best *Run
	for i := range runs {
		p := &runs[i]
		if p.GridS > 0 && p.WorkerPar == r.WorkerPar && p.GroupCommit == r.GroupCommit &&
			p.GoMaxProcs == r.GoMaxProcs && (best == nil || p.GridS < best.GridS) {
			best = p
		}
	}
	return best
}

// checkGrid is the -check verdict on r: the entry it was measured against
// (nil when nothing tracked is comparable) and the regression, if any.
func checkGrid(runs []Run, r Run) (best *Run, err error) {
	best = bestComparable(runs, r)
	if best != nil && r.GridS > best.GridS*gridRegressionLimit {
		err = fmt.Errorf("grid_s %.2fs regressed more than %.0f%% vs the best comparable entry %q (%.2fs)",
			r.GridS, (gridRegressionLimit-1)*100, best.Label, best.GridS)
	}
	return best, err
}

func main() {
	out := flag.String("out", "BENCH_hostperf.json", "baseline file to append this run to")
	label := flag.String("label", "", "label for this run (default: hostbench-<date>)")
	quick := flag.Bool("quick", false, "skip the full Figure-11 grid (CI-friendly, ~10s)")
	par := flag.Int("par", 0, "concurrent grid cells (0 = GOMAXPROCS)")
	procs := flag.Int("gomaxprocs", 0, "set runtime.GOMAXPROCS before timing (0 = leave as-is); the effective value is recorded in the run entry")
	flag.BoolVar(&parWorkers, "parworkers", false, "run the timed cells' workers through the deterministic group scheduler; recorded per entry as worker_par")
	check := flag.Bool("check", false, "regression gate: compare this run's grid_s against the baseline file's best (fastest) gridded entry with the same worker_par, group_commit and gomaxprocs, and exit 1 on a >10% regression (a grid that reads regressed is timed up to three times and the best pass counts, as tracked entries are minima); the run is not appended to the baseline")
	cf = bench.RegisterCommonFlags(true)
	flag.Parse()

	if *check && *quick {
		fmt.Fprintln(os.Stderr, "-check needs the full Figure-11 grid; drop -quick")
		os.Exit(2)
	}

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	r := Run{
		Label:       *label,
		Date:        time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Quick:       *quick,
		WorkerPar:   parWorkers,
		GroupCommit: cf.Group.Enable,
	}
	if r.Label == "" {
		r.Label = "hostbench-" + r.Date
	}

	// Micro loops and the cell take the best of three passes: host noise is
	// strictly additive, so the minimum is the stablest estimator.
	r.PmemStore64Ns, r.PmemLoad64Ns, r.PmemStoreCLWBNs = best3(func() (float64, float64, float64) {
		return pmemMicro(2_000_000)
	})
	fmt.Printf("pmem store64:     %8.1f host-ns/op\n", r.PmemStore64Ns)
	fmt.Printf("pmem load64:      %8.1f host-ns/op\n", r.PmemLoad64Ns)
	fmt.Printf("pmem store+clwb:  %8.1f host-ns/op\n", r.PmemStoreCLWBNs)

	r.YCSBCellS, r.YCSBCellNsPerTxn, _ = best3(func() (float64, float64, float64) {
		s, ns := ycsbCell()
		return s, ns, 0
	})
	fmt.Printf("ycsb cell:        %8.3f host-s  (%0.f host-ns/txn)\n", r.YCSBCellS, r.YCSBCellNsPerTxn)

	if !*quick {
		r.GridS = fig11Grid(*par)
		fmt.Printf("fig11 grid:       %8.2f host-s\n", r.GridS)
	}

	base := load(*out)
	if r.GridS > 0 {
		// The comparison baseline is the file's first gridded entry with the
		// same worker-scheduler and commit-path settings (different settings
		// time different machines).
		for _, prev := range base.Runs {
			if prev.GridS > 0 && prev.WorkerPar == r.WorkerPar && prev.GroupCommit == r.GroupCommit {
				r.GridSpeedupVsBase = prev.GridS / r.GridS
				fmt.Printf("grid speedup vs %q: %.2fx\n", prev.Label, r.GridSpeedupVsBase)
				break
			}
		}
	}
	if *check {
		best, err := checkGrid(base.Runs, r)
		// Tracked grid_s are minima over several runs (host noise only adds),
		// so a pass that reads regressed gets two more to show it was noise.
		for pass := 1; err != nil && pass < 3; pass++ {
			r.GridS = min(r.GridS, fig11Grid(*par))
			fmt.Printf("fig11 grid:       %8.2f host-s (best of %d)\n", r.GridS, pass+1)
			best, err = checkGrid(base.Runs, r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "check:", err)
			os.Exit(1)
		}
		if best == nil {
			fmt.Fprintf(os.Stderr, "check: no comparable gridded entry in %s; nothing to gate against\n", *out)
		} else {
			fmt.Printf("check: grid_s within the regression limit of %q (%.2fs)\n", best.Label, best.GridS)
		}
		return
	}
	base.Runs = append(base.Runs, r)
	save(*out, base)
	fmt.Println("appended run to", *out)

	// Instrumentation is never armed during the timed loops above — it would
	// taint the baseline. With -trace / -stats / -contend / -prom, one extra
	// untimed cell runs instrumented instead.
	if cf.Trace.Enabled() || cf.Stats || cf.Contend || cf.PromPath != "" {
		instrumentedCell()
	}
	cf.Finish()
}

// instrumentedCell runs the same YCSB cell shape as ycsbCell with the flag-
// requested instrumentation armed, outside any timed section.
func instrumentedCell() {
	const workers, txns, warmup = 8, 600, 150
	cfg := cf.Group.Apply(core.FalconConfig())
	cfg.Threads = workers
	e, d, err := bench.NewYCSB(cfg, ycsb.Config{Records: 50_000, Workload: ycsb.A, Distribution: ycsb.Zipfian})
	if err == nil {
		var res *bench.Result
		res, err = bench.Run(e, "YCSB-A",
			cf.Options(bench.Options{Workers: workers, TxnsPerWorker: txns, WarmupPerWorker: warmup}),
			func(w int) (int, error) { return 0, d.Next(w) })
		if err == nil {
			label := "Falcon/YCSB-A Zipfian/8 (extra instrumented cell)"
			cf.Collect(label, res)
			fmt.Print(cf.CellText(label, res))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "instrumented cell:", err)
		os.Exit(1)
	}
}

// runSchema returns the JSON field names this binary writes for a Run entry.
func runSchema() map[string]bool {
	fields := map[string]bool{}
	t := reflect.TypeOf(Run{})
	for i := 0; i < t.NumField(); i++ {
		name := strings.Split(t.Field(i).Tag.Get("json"), ",")[0]
		if name != "" && name != "-" {
			fields[name] = true
		}
	}
	return fields
}

// checkSchema refuses to append to a baseline whose entries carry fields this
// binary does not know: appending would mix two incompatible run schemas in
// one tracked file and silently strip the unknown fields on rewrite. Entries
// merely missing newer fields are fine — the schema only grows.
func checkSchema(path string, data []byte) {
	var raw struct {
		Runs []map[string]json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return // load reports malformed files separately
	}
	known := runSchema()
	for i, run := range raw.Runs {
		for k := range run {
			if !known[k] {
				fmt.Fprintf(os.Stderr, "%s: run %d has field %q outside this binary's run schema; refusing to append (migrate the baseline or rebuild falcon-hostbench)\n", path, i, k)
				os.Exit(1)
			}
		}
	}
}

func load(path string) Baseline {
	b := Baseline{Description: "Host wall-clock cost of the simulation; virtual-time results are unaffected. First entry is the tracked baseline."}
	data, err := os.ReadFile(path)
	if err != nil {
		return b
	}
	checkSchema(path, data)
	if err := json.Unmarshal(data, &b); err != nil {
		fmt.Fprintf(os.Stderr, "warning: %s is not a baseline file (%v); starting fresh\n", path, err)
		return Baseline{Description: b.Description}
	}
	return b
}

func save(path string, b Baseline) {
	b.Schema = bench.HostPerfSchema
	data, err := json.MarshalIndent(b, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "write baseline:", err)
		os.Exit(1)
	}
}

// pmemMicro mirrors internal/pmem's BenchmarkHost* loop shapes exactly:
// 64 B ops striding a 32 MiB working set on a 64 MiB device.
func pmemMicro(n int) (store, loadNs, storeCLWB float64) {
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20, CacheBytes: 2 << 20})
	clk := sim.NewClock()
	buf := make([]byte, 64)

	start := time.Now()
	for i := 0; i < n; i++ {
		sys.Space.Write(clk, uint64(i*64)%(32<<20), buf)
	}
	store = float64(time.Since(start).Nanoseconds()) / float64(n)

	start = time.Now()
	for i := 0; i < n; i++ {
		sys.Space.Read(clk, uint64(i*64)%(32<<20), buf)
	}
	loadNs = float64(time.Since(start).Nanoseconds()) / float64(n)

	start = time.Now()
	for i := 0; i < n; i++ {
		a := uint64(i*64) % (32 << 20)
		sys.Space.Write(clk, a, buf)
		sys.Space.CLWB(clk, a, 64)
	}
	storeCLWB = float64(time.Since(start).Nanoseconds()) / float64(n)
	return store, loadNs, storeCLWB
}

// best3 runs f three times and keeps the pass with the smallest first
// value; the values of one pass stay together (mixing minima across passes
// would fabricate a measurement no pass produced).
func best3(f func() (float64, float64, float64)) (a, b, c float64) {
	a, b, c = f()
	for i := 0; i < 2; i++ {
		x, y, z := f()
		if x < a {
			a, b, c = x, y, z
		}
	}
	return a, b, c
}

func ycsbCell() (seconds, nsPerTxn float64) {
	const workers, txns, warmup = 8, 600, 150
	cfg := cf.Group.Apply(core.FalconConfig())
	cfg.Threads = workers
	start := time.Now()
	e, d, err := bench.NewYCSB(cfg, ycsb.Config{Records: 50_000, Workload: ycsb.A, Distribution: ycsb.Zipfian})
	if err == nil {
		_, err = bench.Run(e, "YCSB-A",
			bench.Options{Workers: workers, TxnsPerWorker: txns, WarmupPerWorker: warmup, ParWorkers: parWorkers},
			func(w int) (int, error) { return 0, d.Next(w) })
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ycsb cell:", err)
		os.Exit(1)
	}
	seconds = time.Since(start).Seconds()
	return seconds, seconds * 1e9 / float64(workers*txns)
}

// fig11Grid times the default falcon-sweep Figure-11 grid: the same cells
// cmd/falcon-sweep builds with no flags (threads 2,4,8,12,16, 600 txns +
// 150 warmup per worker, 50k YCSB records, all five ablation engines).
func fig11Grid(par int) float64 {
	threads := []int{2, 4, 8, 12, 16}
	const txns, warmup = 600, 150
	const records = 50_000

	type workload struct {
		name string
		run  func(ecfg core.Config, th int) (*bench.Result, error)
	}
	ycsbRun := func(dist ycsb.Distribution) func(core.Config, int) (*bench.Result, error) {
		return func(ecfg core.Config, th int) (*bench.Result, error) {
			e, d, err := bench.NewYCSB(ecfg, ycsb.Config{Records: records, Workload: ycsb.A, Distribution: dist})
			if err != nil {
				return nil, err
			}
			return bench.Run(e, "YCSB-A",
				bench.Options{Workers: th, TxnsPerWorker: txns, WarmupPerWorker: warmup, ParWorkers: parWorkers},
				func(w int) (int, error) { return 0, d.Next(w) })
		}
	}
	workloads := []workload{
		{"TPC-C", func(ecfg core.Config, th int) (*bench.Result, error) {
			w := th / 2
			if w < 2 {
				w = 2
			}
			e, d, err := bench.NewTPCC(ecfg, tpcc.Config{Warehouses: w, Items: 2000, CustomersPerDistrict: 120})
			if err != nil {
				return nil, err
			}
			return bench.Run(e, "TPC-C",
				bench.Options{Workers: th, TxnsPerWorker: txns, WarmupPerWorker: warmup, ParWorkers: parWorkers},
				func(w int) (int, error) { return 0, d.Next(w) })
		}},
		{"YCSB-A Uniform", ycsbRun(ycsb.Uniform)},
		{"YCSB-A Zipfian", ycsbRun(ycsb.Zipfian)},
	}

	var cells []bench.Cell
	for _, wl := range workloads {
		for _, ecfg := range bench.AblationConfigs() {
			for _, th := range threads {
				wlRun, eng, t := wl.run, cf.Group.Apply(ecfg), th
				cells = append(cells, bench.Cell{
					Label: fmt.Sprintf("%s/%s/%d", eng.Name, wl.name, t),
					Run: func() (*bench.Result, error) {
						cfg := eng
						cfg.Threads = t
						return wlRun(cfg, t)
					},
				})
			}
		}
	}

	start := time.Now()
	results := bench.RunCells(cells, par)
	elapsed := time.Since(start).Seconds()
	for _, cr := range results {
		if cr.Err != nil {
			fmt.Fprintln(os.Stderr, "grid cell", cr.Label, "failed:", cr.Err)
			os.Exit(1)
		}
	}
	return elapsed
}
