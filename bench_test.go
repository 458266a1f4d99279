// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each Benchmark* corresponds to one figure; the series it prints are
// the figure's data points, measured in virtual time (see DESIGN.md §5).
// The figures are the catalogue's (internal/bench/figures.go), built here at
// a reduced scale so `go test -bench=.` finishes in minutes; the `falcon`
// subcommands expose the full parameter space. The engine figures run their
// workers under the group-mode token (bench.Options.ParWorkers), so two runs
// of `go test -run '^$' -bench 'Fig7|Fig8|Fig9|Recovery' .` print the same
// virtual metrics; EXPERIMENTS.md quotes them.
package falcon_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"falcon/internal/bench"
	"falcon/internal/cc"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

const benchThreads = 4

// benchScale is the reduced scale the figures run at under `go test -bench`;
// each Benchmark* sets the transaction counts that suit its workload. Free-
// running workers on a small host interleave differently from run to run,
// and every multi-worker cell with them; under the token they repeat.
func benchScale(txns, warmup int) bench.Scale {
	return bench.Scale{
		Threads: []int{benchThreads}, Txns: txns, Warmup: warmup, Records: 30_000,
		TPCC: tpcc.Config{Warehouses: 2, Items: 1000, CustomersPerDistrict: 90}, CC: cc.All,
		Flags: &bench.CommonFlags{ParWorkers: true},
	}
}

// benchCache memoizes each sub-benchmark's measurement: these benchmarks
// report simulated (virtual) time, so re-running the workload for larger
// b.N would only repeat the identical measurement. The metrics are
// re-reported on every framework round so they appear in the final output,
// and a round does nothing else: the framework's ramp to a larger b.N then
// costs nothing.
var benchCache sync.Map // b.Name() -> map[string]float64

func runCached(b *testing.B, fn func(b *testing.B) map[string]float64) {
	b.Helper()
	v, ok := benchCache.Load(b.Name())
	if !ok {
		v = fn(b)
		benchCache.Store(b.Name(), v)
	}
	for name, val := range v.(map[string]float64) {
		b.ReportMetric(val, name)
	}
}

// runFigure runs every cell of a catalogue figure as one sub-benchmark: name
// builds the sub-benchmark's name from the cell and its column index, metrics
// turns the cell's index within the figure and its result into the reported
// series.
func runFigure(b *testing.B, fig *bench.Figure, name func(c bench.Cell, col int) string,
	metrics func(i int, r *bench.Result) map[string]float64) {
	first := 0 // index within the figure of the table's first cell
	for _, t := range fig.Tables {
		perRow := len(t.Cells) / len(t.Rows)
		for j, c := range t.Cells {
			i := first + j
			b.Run(name(c, j%perRow), func(b *testing.B) {
				runCached(b, func(b *testing.B) map[string]float64 {
					res, err := c.Run()
					if err != nil {
						b.Fatal(err)
					}
					return metrics(i, res)
				})
			})
		}
		first += len(t.Cells)
	}
}

func mtxn(_ int, r *bench.Result) map[string]float64 {
	return map[string]float64{"MTxn/s(virtual)": r.MTxnPerSec}
}

// BenchmarkFig3ClwbBandwidth — §3.3 Figure 3: store bandwidth with and
// without clwb hints at 256/128/64 B granularity.
func BenchmarkFig3ClwbBandwidth(b *testing.B) {
	s := bench.Scale{Writes: 200_000, Region: 256 << 20}
	sizes := []int{256, 128, 64}
	runFigure(b, bench.Fig3(s),
		func(c bench.Cell, _ int) string { return c.Extra + "/" + c.Workload },
		func(i int, r *bench.Result) map[string]float64 {
			return map[string]float64{"GB/s(virtual)": float64(s.Writes) * float64(sizes[i/2]) / float64(r.VirtualNanos)}
		})
}

// BenchmarkFig7TPCCThroughput — Figure 7: TPC-C throughput for all engines
// under all six concurrency-control algorithms.
func BenchmarkFig7TPCCThroughput(b *testing.B) {
	runFigure(b, bench.Fig7(benchScale(300, 75)), func(c bench.Cell, _ int) string { return c.Label }, mtxn)
}

// BenchmarkFig8TPCCLatency — Figure 8: NewOrder and Payment latency
// (average and 95th percentile) under OCC.
func BenchmarkFig8TPCCLatency(b *testing.B) {
	runFigure(b, bench.Fig8(benchScale(300, 75)), func(c bench.Cell, _ int) string { return c.Engine },
		func(_ int, res *bench.Result) map[string]float64 {
			no, pay := int(tpcc.TxnNewOrder), int(tpcc.TxnPayment)
			return map[string]float64{
				"NewOrder-avg-us": float64(res.LatAvgNanos[no]) / 1e3,
				"NewOrder-p95-us": float64(res.LatP95Nanos[no]) / 1e3,
				"Payment-avg-us":  float64(res.LatAvgNanos[pay]) / 1e3,
				"Payment-p95-us":  float64(res.LatP95Nanos[pay]) / 1e3,
			}
		})
}

// BenchmarkFig9YCSBThroughput — Figure 9: YCSB throughput under Uniform and
// Zipfian distributions. The default run covers the write workloads the
// paper focuses on (A and F); `falcon ycsb` covers A–F.
func BenchmarkFig9YCSBThroughput(b *testing.B) {
	s := benchScale(800, 200)
	s.Workloads = []ycsb.Workload{ycsb.A, ycsb.F}
	runFigure(b, bench.Fig9(s), func(c bench.Cell, _ int) string { return c.Label }, mtxn)
}

// BenchmarkFig11Scalability — Figures 10/11: the individual-optimization
// (ablation) engines across thread counts on TPC-C and YCSB-A.
func BenchmarkFig11Scalability(b *testing.B) {
	s := benchScale(250, 60)
	s.Threads = []int{2, 4, 8}
	runFigure(b, bench.Fig11(s), func(c bench.Cell, _ int) string {
		return fmt.Sprintf("%s/%s/threads=%d", strings.ReplaceAll(c.Workload, " ", "-"), c.Engine, c.Threads)
	}, mtxn)
}

// BenchmarkFig12TupleSize — Figure 12: YCSB-A throughput as the tuple (and
// therefore redo-log) size grows past the small log window.
func BenchmarkFig12TupleSize(b *testing.B) {
	runFigure(b, bench.Fig12(benchScale(400, 200)),
		func(c bench.Cell, col int) string { return fmt.Sprintf("%s/size=%d", c.Engine, bench.TupleSizes[col]) },
		func(_ int, r *bench.Result) map[string]float64 {
			return map[string]float64{"KTxn/s(virtual)": r.MTxnPerSec * 1e3}
		})
}

// BenchmarkRecovery — §6.5: recovery time after a crash, by engine and data
// size. Falcon's is milliseconds and size-independent; heap-scanning engines
// grow linearly.
func BenchmarkRecovery(b *testing.B) {
	s := benchScale(150, 0)
	s.RecoveryRecords = []uint64{20_000, 80_000}
	fig, reports, _ := bench.Recovery(s)
	runFigure(b, fig,
		func(c bench.Cell, col int) string {
			return fmt.Sprintf("%s/records=%d", c.Engine, s.RecoveryRecords[col])
		},
		func(i int, _ *bench.Result) map[string]float64 {
			return map[string]float64{
				"recovery-ms(virtual)": float64(reports[i].TotalNanos) / 1e6,
				"tuples-scanned":       float64(reports[i].TuplesScanned),
			}
		})
}

// BenchmarkTable1EngineMatrix — Table 1: prints the feature matrix of the
// engines under comparison (configuration, not measurement).
func BenchmarkTable1EngineMatrix(b *testing.B) {
	runCached(b, func(b *testing.B) map[string]float64 {
		for _, cfg := range bench.EngineConfigs() {
			c := cfg
			b.Logf("%-24s update=%-12s log=%-12s flush=%-9s index=%-4s tuple-cache=%v",
				c.Name, c.Update, c.Log, c.Flush, c.Index, c.TupleCacheBytes > 0)
		}
		return map[string]float64{"engines": float64(len(bench.EngineConfigs()))}
	})
}
