package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"falcon/internal/bench"
	"falcon/internal/crashtest"
)

// falcon runs one command line in-process.
func falcon(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestGoldenStdout replays the invocations whose stdout was recorded from the
// nine pre-fold binaries (testdata/*.stdout, and the sha256 of the sweep's
// -json file): `falcon X <flags>` must print byte for byte what `falcon-X
// <flags>` printed. A change that moves virtual time on purpose re-records
// them with the command lines below (`falcon X <flags> > testdata/<name>.stdout`,
// `sha256sum` of the -json file) and says per file what moved.
func TestGoldenStdout(t *testing.T) {
	const small = "-threads 1 -items 200 -customers 30 -txns 40 -warmup 10 -cc OCC -stats"
	for _, tc := range []struct {
		name, args string
		json       bool // run with -json and compare the file's digest too
	}{
		{"micro", "micro -writes 20000 -stats", false},
		{"ycsb_e", "ycsb -threads 1 -records 2000 -txns 60 -warmup 20 -workloads E -stats", false},
		{"tpcc_occ", "tpcc " + small, false},
		{"tpcc_latency", "tpcc " + small + " -latency", false},
		{"sweep_fig11", "sweep -threads 2,4 -txns 40 -warmup 10 -records 2000 -parworkers", true},
		{"sweep_fig11_groupcommit", "sweep -threads 2,4 -txns 40 -warmup 10 -records 2000 -parworkers -groupcommit", true},
		{"sweep_fig11_stats_contend", "sweep -threads 2 -txns 40 -warmup 10 -records 2000 -parworkers -stats -contend", false},
		{"sweep_tuplesize", "sweep -tuplesize -threads 2,2 -txns 20 -warmup 6 -parworkers", false},
		{"recovery_faults", "recovery -faults 3 -seed 1 -preset Falcon", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := strings.Fields(tc.args)
			jsonPath := filepath.Join(t.TempDir(), "cells.json")
			if tc.json {
				args = append(args, "-json", jsonPath)
			}
			code, stdout, stderr := falcon(args...)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".stdout"))
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from testdata/%s.stdout:\n%s", tc.name, stdout)
			}
			if !tc.json {
				return
			}
			data, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			wantSum, err := os.ReadFile(filepath.Join("testdata", tc.name+".json.sha256"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(wantSum)) {
				t.Errorf("-json digest %s, recorded %s", got, wantSum)
			}
		})
	}
}

// TestFailedCellsReachTheExitStatus: a figure with failed cells still prints
// its whole table, then exits 1. Here the five in-place engines fill
// order_line ("table full") within 1000 transactions; the pre-fold tool
// printed the same five ERR cells and exited 0.
func TestFailedCellsReachTheExitStatus(t *testing.T) {
	code, stdout, stderr := falcon(strings.Fields("tpcc -threads 1 -items 100 -customers 3 -cc OCC -txns 1000 -warmup 10")...)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, stdout, stderr)
	}
	if rows := strings.Count(stdout, "\n"); rows != 10 {
		t.Errorf("table has %d lines, want title + header + 8 engines:\n%s", rows, stdout)
	}
	if n := strings.Count(stdout, " ERR\n"); n != 5 {
		t.Errorf("%d ERR cells, want the 5 in-place engines:\n%s", n, stdout)
	}
	if n := strings.Count(stderr, "table full: order_line"); n != 5 {
		t.Errorf("stderr names %d table-full errors, want 5:\n%s", n, stderr)
	}
}

// TestBadInputIsRefused: input that parses but selects nothing runnable exits
// 2 with the usage line and prints no table.
func TestBadInputIsRefused(t *testing.T) {
	for _, args := range []string{
		"ycsb -workloads Z",
		"ycsb -workloads A,,B",
		"ycsb -threads 0",
		"sweep -threads 0",
		"sweep -threads 2,-4",
		"sweep -threads 2,x",
		"tpcc -cc NOPE",
		"recovery -threads -1",
		"hostbench -check -quick",
		"serve -preset nope",
		"ycsb -no-such-flag",
		"tracecheck",
		"frobnicate",
		"",
	} {
		code, stdout, stderr := falcon(strings.Fields(args)...)
		if code != 2 || stdout != "" || !strings.Contains(strings.ToLower(stderr), "usage") {
			t.Errorf("falcon %s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, a usage line", args, code, stdout, stderr)
		}
	}
}

// TestTraceAndTracecheck: a trace written by `ycsb -trace` validates, a
// truncated copy does not.
func TestTraceAndTracecheck(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	if code, _, stderr := falcon("ycsb", "-threads", "1", "-records", "2000", "-txns", "60", "-warmup", "20",
		"-workloads", "E", "-trace", trace); code != 0 {
		t.Fatalf("ycsb -trace: exit %d\n%s", code, stderr)
	}
	if code, stdout, _ := falcon("tracecheck", trace); code != 0 || stdout != trace+": ok\n" {
		t.Errorf("tracecheck on a fresh trace: exit %d, %q", code, stdout)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.json")
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stdout, _ := falcon("tracecheck", trace, cut); code != 1 || !strings.Contains(stdout, cut+": INVALID") {
		t.Errorf("tracecheck on a truncated trace: exit %d, %q", code, stdout)
	}
}

// TestHostbenchQuick appends one schema-stamped entry to a copy of the
// tracked baseline (which must therefore pass the schema guard), and refuses
// a baseline carrying a field it does not know.
func TestHostbenchQuick(t *testing.T) {
	tracked, err := os.ReadFile("../../BENCH_hostperf.json")
	if err != nil {
		t.Fatal(err)
	}
	var before hostBaseline
	if err := json.Unmarshal(tracked, &before); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "hostperf.json")
	if err := os.WriteFile(out, tracked, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := falcon("hostbench", "-quick", "-label", "test", "-out", out)
	if code != 0 || !strings.Contains(stdout, "appended run to "+out) {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var after hostBaseline
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if after.Schema != bench.HostPerfSchema || len(after.Runs) != len(before.Runs)+1 {
		t.Fatalf("schema %q, %d runs; want %q and %d", after.Schema, len(after.Runs), bench.HostPerfSchema, len(before.Runs)+1)
	}
	if r := after.Runs[len(after.Runs)-1]; r.Label != "test" || !r.Quick || r.GridS != 0 || r.PmemStore64Ns <= 0 || r.YCSBCellS <= 0 {
		t.Errorf("appended entry %+v", r)
	}

	foreign := filepath.Join(t.TempDir(), "foreign.json")
	if err := os.WriteFile(foreign, []byte(`{"runs":[{"label":"x","worker_par":true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := falcon("hostbench", "-quick", "-out", foreign); code != 1 || !strings.Contains(stderr, `"worker_par"`) {
		t.Errorf("baseline with an unknown field: exit %d, stderr %q", code, stderr)
	}
}

// TestCheckGatesAgainstBestComparable: the gate must bite relative to the
// fastest entry that timed the same machine, not the file's first entry
// (the slow pre-optimisation baseline).
func TestCheckGatesAgainstBestComparable(t *testing.T) {
	runs := []hostRun{
		{Label: "baseline", GoMaxProcs: 1, GridS: 48.2},
		{Label: "opt", GoMaxProcs: 1, GridS: 30.9},
		{Label: "quick", GoMaxProcs: 1, Quick: true},
		{Label: "two-procs", GoMaxProcs: 2, GridS: 32.0},
	}
	for _, tc := range []struct {
		run  hostRun
		best string // label the verdict must be relative to; "" = nothing comparable
		fail bool
	}{
		{hostRun{GoMaxProcs: 1, GridS: 30.9 * 1.15}, "opt", true}, // 35.5 s: passes against 48.2, must fail
		{hostRun{GoMaxProcs: 1, GridS: 30.9 * 1.05}, "opt", false},
		{hostRun{GoMaxProcs: 1, GridS: 25.0}, "opt", false},
		{hostRun{GoMaxProcs: 2, GridS: 32.0 * 1.15}, "two-procs", true},
		{hostRun{GoMaxProcs: 2, GridS: 33.0}, "two-procs", false},
		{hostRun{GoMaxProcs: 4, GridS: 500}, "", false},
	} {
		best, err := checkGrid(runs, tc.run)
		gotBest := ""
		if best != nil {
			gotBest = best.Label
		}
		if gotBest != tc.best {
			t.Errorf("%+v: measured against %q, want %q", tc.run, gotBest, tc.best)
		}
		if (err != nil) != tc.fail {
			t.Errorf("%+v: checkGrid = %v, want failure %v", tc.run, err, tc.fail)
		}
		if err != nil && !strings.Contains(err.Error(), tc.best) {
			t.Errorf("%+v: verdict %q does not name entry %q", tc.run, err, tc.best)
		}
	}
}

// TestServeAndLoadgen boots `serve` on a kernel-picked port, reads the bound
// address off its banner, drives one closed loadgen round of 50 requests,
// scrapes /metrics, then delivers SIGTERM and expects a clean drain.
func TestServeAndLoadgen(t *testing.T) {
	sig := make(chan os.Signal, 1)
	pr, pw := io.Pipe()
	exit := make(chan int, 1)
	go func() {
		exit <- serve(strings.Fields("-addr 127.0.0.1:0 -records 2000 -threads 2"), pw, pw, sig)
		pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("serve printed no banner (exit %d)", <-exit)
	}
	banner := lines.Text()
	m := regexp.MustCompile(`^falcon serve: Falcon on (127\.0\.0\.1:[1-9][0-9]*) \(2 engine threads, 2 pool workers, queue 8, 2000 kv rows\)$`).FindStringSubmatch(banner)
	if m == nil {
		t.Fatalf("banner %q does not name the bound address and the effective pool", banner)
	}
	base := "http://" + m[1]
	var rest strings.Builder
	drained := make(chan struct{})
	go func() { // keep the pipe moving so serve never blocks on a print
		for lines.Scan() {
			rest.WriteString(lines.Text() + "\n")
		}
		close(drained)
	}()

	report := filepath.Join(t.TempDir(), "loadgen.json")
	code, stdout, stderr := falcon("loadgen", "-target", base, "-scenario", "closed", "-clients", "4", "-requests", "50", "-json", report)
	if code != 0 || !strings.Contains(stdout, "scenario closed against "+base) {
		t.Errorf("loadgen: exit %d\n%s%s", code, stdout, stderr)
	}
	if data, err := os.ReadFile(report); err != nil || !strings.Contains(string(data), `"schema": "`+bench.LoadgenSchema+`"`) {
		t.Errorf("loadgen report lacks the %s stamp (%v)", bench.LoadgenSchema, err)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !regexp.MustCompile(`(?m)^falcon_`).Match(metrics) {
		t.Errorf("/metrics has no falcon_ line (%v):\n%.300s", err, metrics)
	}

	sig <- syscall.SIGTERM
	if code := <-exit; code != 0 {
		t.Errorf("serve exited %d after SIGTERM", code)
	}
	<-drained
	if !strings.Contains(rest.String(), "drained, durability epoch sealed") {
		t.Errorf("serve did not report the drain:\n%s", rest.String())
	}
}

// TestCrashReproIsAValidCommandLine: the one-line repro every crash-matrix
// failure prints must be a command line `falcon` accepts and that runs exactly
// that seed of that cell.
func TestCrashReproIsAValidCommandLine(t *testing.T) {
	for _, cell := range crashtest.Matrix() {
		if cell.Config.Name != "Falcon (DRAM Index)" { // a name that needs quoting in a shell
			continue
		}
		args := cell.ReproArgs(7)
		code, stdout, stderr := falcon(args...)
		if code != 0 {
			t.Fatalf("falcon %q: exit %d\n%s%s", args, code, stdout, stderr)
		}
		if !strings.Contains(stdout, "seeds 7..7") || strings.Count(stdout, "Falcon (DRAM Index)") != 1 ||
			!strings.Contains(stdout, " "+crashtest.ModeName(cell.Mode)+" ") {
			t.Errorf("falcon %q did not run seed 7 of %s alone:\n%s", args, cell, stdout)
		}
		if repro := cell.Repro(7); !strings.HasPrefix(repro, "go run ./cmd/falcon recovery ") || !strings.Contains(repro, `"Falcon (DRAM Index)"`) {
			t.Errorf("repro line %q", repro)
		}
	}
}
