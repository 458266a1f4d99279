package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"falcon/internal/bench"
	"falcon/internal/cc"
	"falcon/internal/crashtest"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// allWorkloads is -workloads' default, and what the commands without that
// flag select.
const allWorkloads = "A,B,C,D,E,F"

// gridScale is the one place a figure command's grid selection is parsed and
// checked: thread counts (comma-separated) must be positive integers, workload
// letters within A-F, and -cc one of the six algorithm names (empty: all six).
func gridScale(threads, workloads, algo string) (bench.Scale, error) {
	var s bench.Scale
	for _, f := range strings.Split(threads, ",") {
		th, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || th <= 0 {
			return s, fmt.Errorf("thread count %q is not a positive integer", f)
		}
		s.Threads = append(s.Threads, th)
	}
	want := map[string]bool{}
	for _, l := range strings.Split(workloads, ",") {
		want[strings.ToUpper(strings.TrimSpace(l))] = true
	}
	for _, w := range ycsb.AllWorkloads {
		if letter := strings.TrimPrefix(w.String(), "YCSB-"); want[letter] {
			s.Workloads = append(s.Workloads, w)
			delete(want, letter)
		}
	}
	var unknown []string
	for l := range want {
		unknown = append(unknown, l)
	}
	if unknown != nil {
		slices.Sort(unknown)
		return s, fmt.Errorf("unknown YCSB workload %q (have %s)", strings.Join(unknown, ","), allWorkloads)
	}
	for _, a := range cc.All {
		if algo == "" || a.String() == algo {
			s.CC = append(s.CC, a)
		}
	}
	if s.CC == nil {
		return s, fmt.Errorf("unknown -cc %q (have %v)", algo, cc.All)
	}
	return s, nil
}

// render runs and prints a figure, up to par cells at once (0 = GOMAXPROCS:
// an engine cell runs under the group-mode token and keeps one core busy);
// any failed cell or export makes the exit status 1 after the tables are out.
func render(stdout, stderr io.Writer, fig *bench.Figure, par int, cf *bench.CommonFlags) int {
	if err := bench.Render(stdout, stderr, fig, par, cf); err != nil {
		fmt.Fprintln(stderr, "falcon:", err)
		return 1
	}
	return 0
}

// runMicro regenerates Figure 3: NVM store bandwidth with and without clwb
// hints, at 256 B / 128 B / 64 B write granularities. The paper's point: with
// persistent cache, clwb is unnecessary for correctness, yet flushing adjacent
// lines together lets the NVM module's XPBuffer merge them into full-block
// media writes, avoiding read-modify-write amplification.
func runMicro(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("micro", stderr)
	writes := fs.Int("writes", 1_000_000, "number of random writes per configuration")
	region := fs.Uint64("region", 512<<20, "target region size in bytes")
	cf := bench.RegisterCommonFlags(fs, false) // no engine: group commit / contend do not apply
	if code, done := parse(fs, args); done {
		return code
	}
	// One cell at a time: each cell is a device of -region bytes (512 MiB by
	// default), and two side by side save 40 % of the host time for twice
	// the peak memory (about 2 GiB).
	return render(stdout, stderr, bench.Fig3(bench.Scale{Writes: *writes, Region: *region, Flags: cf}), 1, cf)
}

// runYCSB regenerates Figure 9.
func runYCSB(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("ycsb", stderr)
	threads := fs.Int("threads", 8, "worker threads (the paper uses 48)")
	records := fs.Uint64("records", 100_000, "table records (paper: 256M)")
	txns := fs.Int("txns", 1000, "measured transactions per worker")
	warmup := fs.Int("warmup", 300, "warmup transactions per worker")
	workloads := fs.String("workloads", allWorkloads, "comma-separated workload letters")
	cf := bench.RegisterCommonFlags(fs, true)
	if code, done := parse(fs, args); done {
		return code
	}
	s, err := gridScale(strconv.Itoa(*threads), *workloads, "")
	if err != nil {
		return refuse(fs, stderr, err)
	}
	s.Records, s.Txns, s.Warmup, s.Flags = *records, *txns, *warmup, cf
	return render(stdout, stderr, bench.Fig9(s), 0, cf)
}

// runTPCC regenerates Figure 7 and, with -latency, Figure 8.
func runTPCC(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("tpcc", stderr)
	threads := fs.Int("threads", 8, "worker threads (the paper uses 48)")
	warehouses := fs.Int("warehouses", 0, "warehouses (default = threads/2, min 2)")
	items := fs.Int("items", bench.DefaultTPCC.Items, "catalog size (spec: 100000)")
	customers := fs.Int("customers", bench.DefaultTPCC.CustomersPerDistrict, "customers per district (spec: 3000)")
	txns := fs.Int("txns", 400, "measured transactions per worker")
	warmup := fs.Int("warmup", 100, "warmup transactions per worker")
	latency := fs.Bool("latency", false, "run Figure 8 (latency, OCC) instead of Figure 7")
	algo := fs.String("cc", "", "comma-free CC filter, e.g. OCC (default: all six)")
	cf := bench.RegisterCommonFlags(fs, true)
	if code, done := parse(fs, args); done {
		return code
	}
	s, err := gridScale(strconv.Itoa(*threads), allWorkloads, *algo)
	if err != nil {
		return refuse(fs, stderr, err)
	}
	s.TPCC = tpcc.Config{Warehouses: *warehouses, Items: *items, CustomersPerDistrict: *customers}
	s.Txns, s.Warmup, s.Flags = *txns, *warmup, cf
	if *latency {
		return render(stdout, stderr, bench.Fig8(s), 0, cf)
	}
	return render(stdout, stderr, bench.Fig7(s), 0, cf)
}

// runSweep regenerates the scalability study (Figure 11) and, with
// -tuplesize, the tuple-size study (Figure 12).
func runSweep(args []string, stdout, stderr io.Writer) int {
	d := bench.SweepScale()
	var defThreads []string
	for _, th := range d.Threads {
		defThreads = append(defThreads, strconv.Itoa(th))
	}
	fs := newFlags("sweep", stderr)
	threadList := fs.String("threads", strings.Join(defThreads, ","), "comma-separated thread counts (paper: 8..48)")
	txns := fs.Int("txns", d.Txns, "measured transactions per worker")
	warmup := fs.Int("warmup", d.Warmup, "warmup transactions per worker")
	records := fs.Uint64("records", d.Records, "YCSB records (Figure 11; -tuplesize sizes its own tables)")
	tupleSize := fs.Bool("tuplesize", false, "run Figure 12 (tuple-size sweep) instead of Figure 11")
	cf := bench.RegisterCommonFlags(fs, true)
	cf.RegisterSweep(fs)
	if code, done := parse(fs, args); done {
		return code
	}
	s, err := gridScale(*threadList, allWorkloads, "")
	if err != nil {
		return refuse(fs, stderr, err)
	}
	if *tupleSize && isSet(fs, "records") {
		return refuse(fs, stderr, errors.New("-records does not apply to -tuplesize: Figure 12 sizes each column's table itself"))
	}
	s.Txns, s.Warmup, s.Records, s.TPCC, s.Flags = *txns, *warmup, *records, d.TPCC, cf
	if *tupleSize {
		return render(stdout, stderr, bench.Fig12(s), 0, cf)
	}
	return render(stdout, stderr, bench.Fig11(s), 0, cf)
}

// isSet reports whether the command line gave flag name explicitly.
func isSet(fs *flag.FlagSet, name string) (set bool) {
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runRecovery regenerates the §6.5 recovery study. With -faults N it instead
// runs the crash-consistency matrix: N seeded mid-transaction crashes per
// engine preset per persistence mode, each recovered and checked against a
// golden model of acknowledged commits. A failing seed prints a one-line
// repro command.
//
// Of the shared flags, -trace captures the pre-crash workload of each cell
// (the crash matrix uses -trace-dir instead); -groupcommit flips the study's
// engines into group commit (the crash matrix carries its own group-commit
// cells); -stats prints the recovery-phase breakdown; -contend arms the
// observatory over the pre-crash workload, whose report reaches -prom.
func runRecovery(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("recovery", stderr)
	threads := fs.Int("threads", 8, "worker threads")
	txns := fs.Int("txns", 300, "transactions per worker before the crash")
	faults := fs.Int("faults", 0, "run the crash-consistency matrix with this many seeded crashes per cell")
	seed := fs.Uint64("seed", 1, "first crash seed (seeds run seed..seed+faults-1)")
	preset := fs.String("preset", "", "restrict the crash matrix to one engine preset by name")
	mode := fs.String("mode", "", "restrict the crash matrix to one persistence mode: eadr or adr")
	traceDir := fs.String("trace-dir", "", "with -faults: write each failing seed's pre-crash Chrome trace into this directory")
	records := fs.String("records", "20000,50000,100000,200000", "comma-separated table sizes of the study, one column each")
	cf := bench.RegisterCommonFlags(fs, true)
	if code, done := parse(fs, args); done {
		return code
	}
	if *faults > 0 {
		if isSet(fs, "records") {
			return refuse(fs, stderr, errors.New("-records does not apply to -faults: the crash matrix sizes its own tables"))
		}
		return crashMatrix(stdout, stderr, *faults, *seed, *preset, *mode, *traceDir)
	}
	s, err := gridScale(strconv.Itoa(*threads), allWorkloads, "")
	if err != nil {
		return refuse(fs, stderr, err)
	}
	for _, f := range strings.Split(*records, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil || n == 0 {
			return refuse(fs, stderr, fmt.Errorf("record count %q is not a positive integer", f))
		}
		s.RecoveryRecords = append(s.RecoveryRecords, n)
	}
	s.Txns, s.Flags = *txns, cf
	fig, _, _ := bench.Recovery(s)
	return render(stdout, stderr, fig, 0, cf)
}

// crashMatrix runs the seeded crash-consistency matrix and returns the exit
// status: 1 if any cell had an oracle violation, 2 if no cell matches.
func crashMatrix(stdout, stderr io.Writer, faults int, firstSeed uint64, preset, mode, traceDir string) int {
	var cells []crashtest.Cell
	for _, c := range crashtest.Matrix() {
		if preset != "" && !strings.EqualFold(c.Config.Name, preset) {
			continue
		}
		if mode != "" && !strings.EqualFold(crashtest.ModeName(c.Mode), mode) {
			continue
		}
		cells = append(cells, c)
	}
	if len(cells) == 0 {
		fmt.Fprintf(stderr, "no matrix cell matches -preset %q -mode %q\n", preset, mode)
		return 2
	}

	fmt.Fprintf(stdout, "Crash-consistency matrix: %d seeded crashes per cell, seeds %d..%d\n\n",
		faults, firstSeed, firstSeed+uint64(faults)-1)
	fmt.Fprintf(stdout, "%-22s %-5s %7s %8s %6s %8s %9s %10s %8s  %s\n",
		"preset", "mode", "oracle", "crashes", "torn", "corrupt", "det.torn", "det.corr", "dropped", "verdict")

	exit := 0
	for _, cell := range cells {
		res := crashtest.RunCell(cell, crashtest.Options{Seeds: faults, FirstSeed: firstSeed, TraceDir: traceDir})
		oracle := "contain"
		if res.Strict {
			oracle = "strict"
		}
		verdict := "PASS"
		if !res.Passed() {
			verdict = fmt.Sprintf("FAIL (%d violations)", len(res.Violations))
			exit = 1
		}
		fmt.Fprintf(stdout, "%-22s %-5s %7s %8d %6d %8d %9d %10d %8d  %s\n",
			cell.Config.Name, crashtest.ModeName(cell.Mode), oracle,
			res.Crashes, res.Torn, res.Corrupt, res.DetectedTorn, res.DetectedCorrupt,
			res.DroppedUnsealed, verdict)
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "    seed %d: %s\n      repro: %s\n", v.Seed, v.Detail, cell.Repro(v.Seed))
			if v.TracePath != "" {
				fmt.Fprintf(stdout, "      trace: %s\n", v.TracePath)
			}
		}
	}
	return exit
}
