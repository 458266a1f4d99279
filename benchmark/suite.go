package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// bounds are the regression bounds of the end-to-end metrics: the share of
// the parent's median by which a metric may get worse. They were fixed from
// `--aa 10` outputs on the reference host (README, "Steadiness"): three times
// the widest quartile distance seen on any workload, rounded up to 2, 5, 10
// or 25 %, which is the most the driver allows. The virtual figures repeat
// within 0.4 % and the peak resident set within 2 %. The timed figures sit at
// the cap because the host does not run at one speed: in its bad hours they
// spread by 9 to 17 % whatever the run length, and ISSUE 11's alternative, to
// demote what cannot hold 10 %, would leave no host-clock figure gated at all.
// cpu_us_per_op was demoted (bench.cpu_us_per_op): on the open loop it spreads
// by 10 % even in the host's good hours.
var bounds = map[string]float64{
	"setup_s":                 0.25,
	"throughput_ops_s":        0.25,
	"latency_p50_us":          0.25,
	"peak_rss_mib":            0.10,
	"virt_mtxn_s":             0.02,
	"virt_media_bytes_per_op": 0.02,
}

const runSeconds = 10

// specJSON renders BENCHMARK.json from the tables of this package, so the
// file and the program cannot drift apart unnoticed (the smoke test compares
// them).
func specJSON() []byte {
	spec := benchmarkFile{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, boundedMetric{d.name, d.unit, d.better, bounds[d.name]})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerMetric{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}

// child runs one workload in a fresh process of this binary, so that neither
// resident set nor GC state leaks from one workload into the next, and
// returns the result its last output line carries.
func child(opt options, trace int, echo io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--workload", opt.workload, "--seed", strconv.FormatUint(opt.seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): no result line: %w", opt.workload, trace, errors.Join(runErr, err))
	}
	if runErr != nil {
		why := ""
		for _, l := range lines {
			if strings.HasPrefix(l, "NOT CORRECT") {
				why = ": " + l
			}
		}
		return &res, fmt.Errorf("%s seed %d (trace %d): %w%s", opt.workload, opt.seed, trace, runErr, why)
	}
	return &res, nil
}

// runAll is the one command: every workload, untraced then traced.
func runAll(opt options) error {
	var errs []error
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			o := opt
			o.workload = w.name
			_, err := child(o, trace, os.Stdout)
			fmt.Println()
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// quartiles returns the first quartile, the median and the third quartile
// of values as Python's statistics.quantiles(values, n=4) does (the
// "exclusive" method) — the driver's arithmetic. Below four values the
// quartiles are the extremes.
func quartiles(values []float64) (q1, median, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 4 {
		median = v[n/2]
		if n%2 == 0 {
			median = (v[n/2-1] + v[n/2]) / 2
		}
		return v[0], median, v[n-1]
	}
	quantile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return quantile(1), quantile(2), quantile(3)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median: the driver's acceptance measure.
func quartileSpread(values []float64) float64 {
	q1, median, q3 := quartiles(values)
	if median == 0 {
		return 0
	}
	return (q3 - q1) / median
}

// runAA runs the untraced suite n times on this tree, each time with another
// seed, and fails when the spread of an end-to-end metric, setup_s too,
// exceeds its bound.
func runAA(opt options, n int) error {
	values := map[string][]float64{} // "workload metric" -> one value per run
	var errs []error
	for run := 0; run < n; run++ {
		for _, w := range workloads {
			o := opt
			o.workload, o.seed = w.name, opt.seed+uint64(run)
			res, err := child(o, 0, io.Discard)
			if err == nil && !res.Correct {
				err = fmt.Errorf("%s seed %d: not correct", w.name, o.seed)
			}
			if err != nil {
				errs = append(errs, err)
				continue
			}
			fmt.Printf("run %d/%d %-16s seed %d done\n", run+1, n, w.name, o.seed)
			for name, mv := range res.Metrics {
				values[w.name+" "+name] = append(values[w.name+" "+name], mv.Value)
			}
		}
	}
	fmt.Printf("\n%-16s %-24s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := values[w.name+" "+d.name]
			if len(v) == 0 {
				continue
			}
			spread, bound := quartileSpread(v), bounds[d.name]
			sort.Float64s(v)
			verdict := ""
			if spread > bound {
				verdict = "  EXCEEDS"
				errs = append(errs, fmt.Errorf("%s %s: spread %.4f exceeds bound %.2f", w.name, d.name, spread, bound))
			}
			fmt.Printf("%-16s %-24s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", w.name, d.name, v[0], median(v), v[len(v)-1], spread, bound, verdict)
		}
	}
	return errors.Join(errs...)
}
