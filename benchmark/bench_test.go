package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smokeOptions is a run small enough for the tier-1 budget.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 5, seconds: 0.2, trace: trace, scale: 25, out: t.TempDir()}
}

// benchmarkJSON is the file at the repository root; tests run in benchmark/.
var benchmarkJSON = filepath.Join("..", "BENCHMARK.json")

func loadBenchmarkFile(t *testing.T) (raw []byte, f benchmarkFile) {
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("%s: %v", benchmarkJSON, err)
	}
	return raw, f
}

// BENCHMARK.json is generated from the tables of this package (--spec) and
// stays inside the limits the driver sets.
func TestBenchmarkFileMatchesTheTables(t *testing.T) {
	onDisk, f := loadBenchmarkFile(t)
	if !bytes.Equal(onDisk, specJSON()) {
		t.Fatal("BENCHMARK.json differs from `--spec`; regenerate it: bash benchmark/run.sh --spec > BENCHMARK.json")
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(onDisk) > 64<<10 {
		t.Errorf("run_seconds %d or file size %d out of range", f.RunSeconds, len(onDisk))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range f.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v out of contract", m)
		}
	}
	var shares int
	for _, l := range hostShareLayers {
		if seen[l+".host_share"] {
			shares++
		}
	}
	if shares != len(hostShareLayers) {
		t.Errorf("%d of %d host_share metrics declared", shares, len(hostShareLayers))
	}
}

// Every workload, in both passes, emits exactly the declared metrics, passes
// its own checks, and the traced pass attributes all of the CPU profile.
func TestSmokeEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	_, f := loadBenchmarkFile(t)
	for _, w := range f.Workloads {
		skipped := map[string]bool{}
		for _, name := range notApplicable(w.Name) {
			skipped[name] = true
		}
		for _, trace := range []bool{false, true} {
			opt := smokeOptions(t, w.Name, trace)
			var out bytes.Buffer
			res, err := runOne(opt, &out)
			if err != nil {
				t.Fatalf("%s trace %v: %v", w.Name, trace, err)
			}
			// Under the race detector or on a stalled host the server cannot
			// hold 16 000 req/s; that the open loop then reports saturation is
			// right, and not what a smoke test is about. (The complaints are
			// the last lines of the output, one per line.)
			_, complaints, _ := strings.Cut(strings.TrimSpace(out.String()), "NOT CORRECT: ")
			onlySaturated := complaints != ""
			for _, l := range strings.Split(complaints, "\n") {
				onlySaturated = onlySaturated && strings.HasPrefix(l, "open loop saturated")
			}
			if onlySaturated {
				t.Logf("%s trace %v: saturated on this host, other checks passed", w.Name, trace)
			} else if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace %v: correct %v, attempted %d, failed %d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := map[string]string{}
			if trace {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, v := range res.Metrics {
				if want[name] != v.Unit {
					t.Errorf("%s trace %v: metric %s has unit %q, declared %q", w.Name, trace, name, v.Unit, want[name])
				}
				delete(want, name)
				// At smoke scale the served table fits the simulated cache, so
				// the read-only workload moves no media bytes; at full scale it
				// moves about 1000 per op.
				smokeZero := w.Name == "serve_open_ro" && name == "virt_media_bytes_per_op"
				if !trace && v.Value <= 0 && !smokeZero {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, name, v.Value)
				}
				// A time that reads 0 on the traced pass was not measured.
				// (A smoke run may end before the first 10 Hz scrape does.)
				timing := v.Unit == "ns" || v.Unit == "us" || v.Unit == "ms"
				if trace && timing && v.Value <= 0 && !skipped[name] && name != "server.scrape_us" {
					t.Errorf("%s: per-layer time %s is %v", w.Name, name, v.Value)
				}
			}
			for name := range want {
				t.Errorf("%s trace %v: declared metric %s was not emitted", w.Name, trace, name)
			}
			if !trace {
				continue
			}
			var sum float64
			for _, l := range hostShareLayers {
				sum += res.Metrics[l+".host_share"].Value
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("%s: host shares sum to %v", w.Name, sum)
			}
			if _, err := os.Stat(filepath.Join(opt.out, w.Name+".trace.json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.Name, err)
			}
		}
	}
}

// A wrong golden value makes the durability check fail: an update that was
// never acknowledged on YCSB, an add that was never made on the served table.
func TestPlantedGoldenValueFiresTheCheck(t *testing.T) {
	t.Run("ycsb", func(t *testing.T) {
		y := &ycsbWorkload{opt: smokeOptions(t, "ycsb_a_zipf", false)}
		if err := y.setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := y.run(50*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		y.last[1][7] += 3
		if _, err := y.check(); err == nil || !strings.Contains(err.Error(), "key 7 ") {
			t.Fatalf("check passed a planted acknowledgement: %v", err)
		}
	})
	t.Run("serve", func(t *testing.T) {
		s := &serveWorkload{opt: smokeOptions(t, "serve_closed_rw", false)}
		if err := s.setup(); err != nil {
			t.Fatal(err)
		}
		defer s.close()
		if _, err := s.run(50*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		s.adds[0][11]++
		if _, err := s.check(); err == nil || !strings.Contains(err.Error(), "key 11 ") {
			t.Fatalf("check passed a planted add: %v", err)
		}
	})
}

func TestQuartileSpreadIsPythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	values := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, med, q3 := quartiles(values); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got quartiles %v %v %v", q1, med, q3)
	}
	if spread := quartileSpread(values); spread != (8.25-2.75)/5.5 {
		t.Errorf("spread %v", spread)
	}
	if spread := quartileSpread([]float64{100, 104}); spread != 4.0/102 {
		t.Errorf("two values: spread %v, want range over median", spread)
	}
}

func TestLatencySummaryUsesExactSamples(t *testing.T) {
	a, b := newLatRecorder(0), newLatRecorder(0)
	for i := 1; i <= 1000; i++ {
		r := a
		if i%2 == 0 {
			r = b
		}
		r.add(time.Duration(i) * time.Microsecond)
	}
	s := mergeLat(a, b)
	if s.count() != 1000 || s.quantileUS(0.5) != 501 || s.quantileUS(0.99) != 991 {
		t.Errorf("count %d p50 %v p99 %v", s.count(), s.quantileUS(0.5), s.quantileUS(0.99))
	}
	// 1000 samples leave 10 beyond p99 and only 1 beyond p99.9.
	if label, us := s.tail(); label != "p99" || us != 991 {
		t.Errorf("tail %s %v, want p99 991", label, us)
	}
}

func TestProfileAttribution(t *testing.T) {
	for _, c := range []struct {
		owner string
		stack []string // innermost first
	}{
		{"sim", []string{"falcon/internal/sim.(*Clock).Advance", "falcon/internal/pmem.(*Cache).Store", "falcon/internal/core.(*Txn).Commit", "main.(*ycsbWorkerRun).loop"}},
		{"server", []string{"runtime.mallocgc", "falcon/internal/server.Apply", "falcon/internal/server.(*Server).worker"}},
		{"json", []string{"encoding/json.(*encodeState).marshal", "falcon/internal/server.writeJSON", "net/http.(*conn).serve"}},
		{"http", []string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*connReader).Read", "net/http.(*conn).serve"}},
		{"http", []string{"net/http.(*ServeMux).ServeHTTP", "main.(*handlerSpans).ServeHTTP", "net/http.(*conn).serve"}},
		{"loadgen", []string{"syscall.Syscall", "net.(*conn).Write", "main.(*clientConn).do", "main.(*connRun).request"}},
		{"loadgen", []string{"encoding/json.Unmarshal", "main.(*clientConn).do"}},
		{"loadgen", []string{"math.Pow", "falcon/benchmark/gen.(*Zipf).Next", "main.(*ycsbWorkerRun).loop"}},
		{"obs", []string{"falcon/internal/obs/contend.(*Worker).Touch", "falcon/internal/core.(*Txn).read"}},
		{"other", []string{"falcon/internal/layout.(*Schema).GetInt64", "falcon/internal/server.execOps"}},
		{"runtime", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"other", []string{"time.Now"}},
	} {
		if got := stackOwner(c.stack); got != c.owner {
			t.Errorf("stack %v: owner %q, want %q", c.stack, got, c.owner)
		}
	}

	// A real profile of this process parses and its shares sum to 1.
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var sink uint64
	for start := time.Now(); time.Since(start) < 60*time.Millisecond; {
		sink += scrambled(int(sink))
	}
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, share := range prof.attribute() {
		sum += share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares of a real profile (%d samples) sum to %v", len(prof.stacks), sum)
	}
	if len(prof.stacks) > 0 && len(prof.stacks[0]) == 0 {
		t.Error("a sample decoded to an empty stack")
	}
}
