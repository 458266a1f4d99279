package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"falcon/internal/bench"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// hostbench measures the HOST cost of the simulation: wall-clock nanoseconds
// per simulated pmem operation, per YCSB transaction, and for the default
// Figure-11 grid — bench.Fig11 at bench.SweepScale, the very cells `falcon
// sweep` renders. Virtual-time results (the numbers the paper reports) are
// independent of everything measured here — this tracks how much sweep fits
// in a CI budget, and whether a change regressed the engine's host hot path.
//
// Results append to a JSON baseline file (default BENCH_hostperf.json). Each
// run adds one entry; speedups are reported against the file's first entry,
// so the first committed entry is the tracked baseline, while the -check
// regression gate compares against the best comparable entry. Compare runs
// with: jq '.runs[] | {label, grid_s, pmem_store64_ns}' BENCH_hostperf.json

// hostRun is one measurement session appended to the baseline file.
type hostRun struct {
	Label      string `json:"label"`
	Date       string `json:"date"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick,omitempty"`
	// Host nanoseconds per simulated 64 B operation (32 MiB working set on
	// a 64 MiB device — miss-heavy, the expensive path).
	PmemStore64Ns   float64 `json:"pmem_store64_ns"`
	PmemLoad64Ns    float64 `json:"pmem_load64_ns"`
	PmemStoreCLWBNs float64 `json:"pmem_store_clwb_ns"`
	// One end-to-end cell of the grid, Falcon on YCSB-A Zipfian with 8
	// workers under the group-mode token (50k records, 600 txns + 150 warmup
	// each): host seconds for the whole cell including load, and host
	// nanoseconds per measured transaction.
	YCSBCellS        float64 `json:"ycsb_cell_s"`
	YCSBCellNsPerTxn float64 `json:"ycsb_cell_host_ns_per_txn"`
	// Host seconds for the default Figure-11 grid (3 workloads x 5 engines x
	// threads 2,4,8,12,16), GOMAXPROCS cells at once. Omitted by -quick.
	GridS float64 `json:"grid_s,omitempty"`
	// Speedup of this run's grid vs the file's first entry with a grid.
	GridSpeedupVsBase float64 `json:"grid_speedup_vs_baseline,omitempty"`
}

// hostBaseline is the tracked file layout.
type hostBaseline struct {
	Schema      string    `json:"schema,omitempty"`
	Description string    `json:"description"`
	Runs        []hostRun `json:"runs"`
}

// gridRegressionLimit is the -check gate: the run fails when grid_s exceeds
// the best comparable entry by more than this factor.
const gridRegressionLimit = 1.10

// checkGrid is the -check verdict on r: the entry it was measured against —
// the fastest gridded entry at the same GOMAXPROCS, nil when there is none —
// and the regression, if any. The gate measures against the best, not the
// first: the file's first entry is the pre-optimisation baseline, and a gate
// anchored there lets every gain since be given back unnoticed.
func checkGrid(runs []hostRun, r hostRun) (best *hostRun, err error) {
	for i := range runs {
		p := &runs[i]
		if p.GridS > 0 && p.GoMaxProcs == r.GoMaxProcs && (best == nil || p.GridS < best.GridS) {
			best = p
		}
	}
	if best != nil && r.GridS > best.GridS*gridRegressionLimit {
		err = fmt.Errorf("grid_s %.2fs regressed more than %.0f%% vs the best comparable entry %q (%.2fs)",
			r.GridS, (gridRegressionLimit-1)*100, best.Label, best.GridS)
	}
	return best, err
}

func runHostbench(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("hostbench", stderr)
	out := fs.String("out", "BENCH_hostperf.json", "baseline file to append this run to")
	label := fs.String("label", "", "label for this run (default: hostbench-<date>)")
	quick := fs.Bool("quick", false, "skip the full Figure-11 grid (CI-friendly, ~10s)")
	procs := fs.Int("gomaxprocs", 0, "set runtime.GOMAXPROCS before timing (0 = leave as-is); the effective value is recorded in the run entry")
	check := fs.Bool("check", false, "regression gate: compare this run's grid_s against the baseline file's best (fastest) gridded entry with the same gomaxprocs, and exit 1 on a >10% regression (a grid that reads regressed is timed up to three times and the best pass counts, as tracked entries are minima); the run is not appended to the baseline")
	if code, done := parse(fs, args); done {
		return code
	}
	if *check && *quick {
		return refuse(fs, stderr, fmt.Errorf("-check needs the full Figure-11 grid; drop -quick"))
	}
	if err := hostbench(stdout, stderr, *out, *label, *quick, *check, *procs); err != nil {
		fmt.Fprintln(stderr, "falcon hostbench:", err)
		return 1
	}
	return 0
}

func hostbench(stdout, stderr io.Writer, out, label string, quick, check bool, procs int) error {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	r := hostRun{
		Label:      label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	if r.Label == "" {
		r.Label = "hostbench-" + r.Date
	}
	base, err := loadBaseline(out)
	if err != nil {
		return err
	}

	// Micro loops and the cell take the best of three passes: host noise is
	// strictly additive, so the minimum is the stablest estimator. The values
	// of one micro pass stay together (mixing minima across passes would
	// fabricate a measurement no pass produced).
	for pass := 0; pass < 3; pass++ {
		if st, ld, cl := pmemMicro(2_000_000); pass == 0 || st < r.PmemStore64Ns {
			r.PmemStore64Ns, r.PmemLoad64Ns, r.PmemStoreCLWBNs = st, ld, cl
		}
	}
	fmt.Fprintf(stdout, "pmem store64:     %8.1f host-ns/op\n", r.PmemStore64Ns)
	fmt.Fprintf(stdout, "pmem load64:      %8.1f host-ns/op\n", r.PmemLoad64Ns)
	fmt.Fprintf(stdout, "pmem store+clwb:  %8.1f host-ns/op\n", r.PmemStoreCLWBNs)

	scale := bench.SweepScale()
	grid := bench.Fig11(scale)
	const cellWorkers = 8
	cell, err := grid.Cell(fmt.Sprintf("Falcon/YCSB-A Zipfian/%d", cellWorkers))
	if err != nil {
		return err
	}
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		if _, err := cell.Run(); err != nil {
			return fmt.Errorf("ycsb cell: %w", err)
		}
		if s := time.Since(start).Seconds(); pass == 0 || s < r.YCSBCellS {
			r.YCSBCellS = s
		}
	}
	r.YCSBCellNsPerTxn = r.YCSBCellS * 1e9 / float64(cellWorkers*scale.Txns)
	fmt.Fprintf(stdout, "ycsb cell:        %8.3f host-s  (%0.f host-ns/txn)\n", r.YCSBCellS, r.YCSBCellNsPerTxn)

	// timeGrid runs every cell of the grid and returns the host seconds.
	timeGrid := func() (float64, error) {
		start := time.Now()
		results := bench.RunCells(grid.Cells(), 0)
		elapsed := time.Since(start).Seconds()
		for _, cr := range results {
			if cr.Err != nil {
				return 0, fmt.Errorf("grid cell %s failed: %w", cr.Label, cr.Err)
			}
		}
		return elapsed, nil
	}
	if !quick {
		if r.GridS, err = timeGrid(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fig11 grid:       %8.2f host-s\n", r.GridS)
		// Speedups are against the file's first gridded entry.
		for _, prev := range base.Runs {
			if prev.GridS > 0 {
				r.GridSpeedupVsBase = prev.GridS / r.GridS
				fmt.Fprintf(stdout, "grid speedup vs %q: %.2fx\n", prev.Label, r.GridSpeedupVsBase)
				break
			}
		}
	}
	if check {
		best, verdict := checkGrid(base.Runs, r)
		// Tracked grid_s are minima over several runs (host noise only adds),
		// so a pass that reads regressed gets two more to show it was noise.
		for pass := 1; verdict != nil && pass < 3; pass++ {
			s, err := timeGrid()
			if err != nil {
				return err
			}
			r.GridS = min(r.GridS, s)
			fmt.Fprintf(stdout, "fig11 grid:       %8.2f host-s (best of %d)\n", r.GridS, pass+1)
			best, verdict = checkGrid(base.Runs, r)
		}
		if verdict != nil {
			return fmt.Errorf("check: %w", verdict)
		}
		if best == nil {
			fmt.Fprintf(stderr, "check: no comparable gridded entry in %s; nothing to gate against\n", out)
		} else {
			fmt.Fprintf(stdout, "check: grid_s within the regression limit of %q (%.2fs)\n", best.Label, best.GridS)
		}
		return nil
	}
	base.Runs = append(base.Runs, r)
	base.Schema = bench.HostPerfSchema
	data, err := json.MarshalIndent(base, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("write baseline: %w", err)
	}
	fmt.Fprintln(stdout, "appended run to", out)
	return nil
}

// loadBaseline reads the tracked file; a missing file is an empty baseline.
// It refuses a file that does not decode, in particular one whose entries
// carry fields this binary does not know: appending would mix two
// incompatible run schemas in one tracked file and silently strip the unknown
// fields on rewrite. Entries merely missing newer fields are fine — the
// schema only grows.
func loadBaseline(path string) (hostBaseline, error) {
	b := hostBaseline{Description: "Host wall-clock cost of the simulation; virtual-time results are unaffected. First entry is the tracked baseline."}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return b, nil
	} else if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("%s is not a baseline this binary can append to (migrate the file or rebuild falcon): %w", path, err)
	}
	return b, nil
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
