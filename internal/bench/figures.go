package bench

import (
	"fmt"
	"strconv"
	"strings"

	"falcon/internal/cc"
	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// This file is the figure catalogue: one constructor per figure of the
// paper's evaluation (§6). A constructor takes a Scale and returns the
// figure's tables — labels plus the cells that measure them — and every
// engine cell is assembled by the one constructor, Scale.measure, and runs its
// workers under the group-mode token. The `falcon`
// subcommands, the root Benchmark* functions and hostbench all call these
// constructors; they differ only in the Scale they pass.

// Scale is the size a figure is measured at, plus what the caller's flags ask
// of every cell. The figure commands fill it from their flags, the root
// benchmarks from reduced constants, hostbench from SweepScale.
type Scale struct {
	// Threads lists worker counts: Figure 11's columns and Figure 12's row
	// groups. The figures measured at one count (7, 8, 9, recovery) use the
	// first.
	Threads []int
	// Txns and Warmup are transactions per worker, measured and before.
	Txns, Warmup int
	// Records is the YCSB table size of Figures 9 and 11; RecoveryRecords
	// lists the table sizes of the recovery study.
	Records         uint64
	RecoveryRecords []uint64
	// TPCC sizes the TPC-C database. Warehouses 0 means half the thread
	// count, at least two.
	TPCC tpcc.Config
	// Workloads are Figure 9's YCSB workloads and CC Figure 7's algorithms.
	Workloads []ycsb.Workload
	CC        []cc.Algo
	// Writes and Region size Figure 3's store loop.
	Writes int
	Region uint64
	// Flags decorates every cell (tracing, group commit, the observatory);
	// nil runs them bare. Every engine cell runs under the group-mode token
	// either way (CommonFlags.options).
	Flags *CommonFlags
}

// DefaultTPCC is the TPC-C database the figures load unless told otherwise
// (spec: 100 000 items, 3 000 customers per district).
var DefaultTPCC = tpcc.Config{Items: 2000, CustomersPerDistrict: 120}

// SweepScale is the default Figure-11 grid: what `falcon sweep` runs with no
// flags and what `falcon hostbench` times.
func SweepScale() Scale {
	return Scale{Threads: []int{2, 4, 8, 12, 16}, Txns: 600, Warmup: 150, Records: 50_000, TPCC: DefaultTPCC}
}

// Table is one printed grid of a figure: a title, a header line, and one line
// per row holding the values of that row's cells.
type Table struct {
	// Title is printed first, newline included.
	Title string
	// Corner heads the row-label column. RowFmt formats it and every row
	// label, ColFmt every column head and cell value.
	Corner         string
	RowFmt, ColFmt string
	Cols, Rows     []string
	// Cells holds the measurements row by row, len(Cells)/len(Rows) per row.
	Cells []Cell
	// Values renders cell i's result as one string per column it fills.
	Values func(i int, r *Result) []string
	// Quiet suppresses the cells' -stats / -contend blocks.
	Quiet bool
	// Foot, when set, is evaluated after the last row and printed.
	Foot func() string
}

// Figure is one figure of the evaluation.
type Figure struct {
	// Name is the paper's figure number, stamped on exported cells.
	Name   string
	Tables []Table
}

// Cells lists the figure's cells in print order.
func (f *Figure) Cells() []Cell {
	var out []Cell
	for _, t := range f.Tables {
		out = append(out, t.Cells...)
	}
	return out
}

// mtxn renders throughput cells.
func mtxn(_ int, r *Result) []string { return []string{fmt.Sprintf("%.3f", r.MTxnPerSec)} }

// measure is the one place a measurement is assembled: size a device for the
// tables, build the engine, load the workload, open its driver and run it. The
// workload is a ycsb.Config or a tpcc.Config; o.Workers is the thread count.
func (s Scale) measure(label string, ecfg core.Config, workload any, o Options) (*core.Engine, *Result, error) {
	ecfg.Threads = o.Workers
	var (
		e    *core.Engine
		name string
		next TxnFunc
	)
	switch wcfg := workload.(type) {
	case ycsb.Config:
		eng, d, err := NewYCSB(ecfg, wcfg)
		if err != nil {
			return nil, nil, err
		}
		e, name, next = eng, wcfg.Workload.String(), func(w int) (int, error) { return 0, d.Next(w) }
	case tpcc.Config:
		eng, d, err := NewTPCC(ecfg, wcfg)
		if err != nil {
			return nil, nil, err
		}
		e, name, next = eng, "TPC-C", func(w int) (int, error) {
			ty, err := d.NextTyped(w)
			return int(ty), err
		}
	default:
		panic(fmt.Sprintf("bench: cell %s: workload is a %T", label, workload))
	}
	res, err := Run(e, name, s.flags().options(o), next)
	return e, res, err
}

// cell wraps measure as a grid cell. workload names the cell's table or
// column in the exports ("YCSB-A Zipfian").
func (s Scale) cell(label, workload string, ecfg core.Config, wcfg any, o Options) Cell {
	return Cell{Label: label, Workload: workload, Engine: ecfg.Name, Threads: o.Workers,
		Run: func() (*Result, error) {
			_, res, err := s.measure(label, ecfg, wcfg, o)
			return res, err
		}}
}

// engines applies the flags to a preset list.
func (s Scale) engines(presets []core.Config) []core.Config {
	out := make([]core.Config, len(presets))
	for i, p := range presets {
		out[i] = s.flags().Group.Apply(p)
	}
	return out
}

// options is the run shape shared by the figures: th workers at the scale's
// transaction counts.
func (s Scale) options(th int) Options {
	return Options{Workers: th, TxnsPerWorker: s.Txns, WarmupPerWorker: s.Warmup}
}

// tpcc is the TPC-C database for th workers.
func (s Scale) tpcc(th int) tpcc.Config {
	w := s.TPCC
	if w.Warehouses == 0 {
		w.Warehouses = max(th/2, 2)
	}
	return w
}

// Fig3 is the clwb micro-benchmark: store bandwidth with and without clwb
// hints at 256 / 128 / 64 B granularity. Its cells drive the pmem layer bare.
func Fig3(s Scale) *Figure {
	t := Table{
		Title:  "Figure 3: bandwidth for data stores w/wo clwbs (eADR)\n",
		Corner: "size", RowFmt: "%-8s", ColFmt: " %-18s",
		Cols: []string{"store+sfence", "store+clwb+sfence"},
	}
	sizes := []int{256, 128, 64}
	for _, size := range sizes {
		t.Rows = append(t.Rows, strconv.Itoa(size))
		for c, col := range t.Cols {
			clwb := c == 1
			t.Cells = append(t.Cells, Cell{
				Label: fmt.Sprintf("size=%d %s", size, col), Workload: col, Extra: fmtSize(size),
				Run: func() (*Result, error) {
					return storeLoop(s.Writes, size, s.Region, clwb, s.flags().traceOptions()), nil
				},
			})
		}
	}
	t.Values = func(i int, r *Result) []string {
		bps := float64(s.Writes) * float64(sizes[i/2]) / (float64(r.VirtualNanos) / 1e9)
		return []string{fmt.Sprintf("%.2f GB/s", bps/1e9)}
	}
	return &Figure{Name: "3", Tables: []Table{t}}
}

// storeLoop writes random aligned chunks and reports the virtual time they
// took plus the observability snapshot of the run. There is no engine, so it
// keeps a probe of its own over the loop: stores are heap-write time,
// sfence/clwb are flush time. With topt set it also arms a single-worker
// tracer: phase segments and XPBuffer evictions land in the ring (the ring
// keeps the tail of the run; there are no transactions here, so no sampling).
func storeLoop(writes, size int, region uint64, clwb bool, topt *obs.TraceOptions) *Result {
	sys := pmem.NewSystem(pmem.Config{Mode: pmem.EADR, DeviceBytes: region})
	clk := sim.NewClock()
	var pr obs.Probe
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	var tr *obs.Tracer
	if topt != nil {
		tr = obs.NewTracer(1, *topt)
		pr.Arm(tr, nil, 0)
		sys.SetHook(func(_ uint64, kind pmem.FlushKind, addr, start, end uint64) {
			pr.Flush(kind, addr, start, end)
		})
	}
	pr.Start(clk)
	pr.To(obs.PhaseHeapWrite)
	// xorshift for the random aligned addresses (the paper's setup).
	state := uint64(0x9E3779B97F4A7C15)
	mask := region/uint64(size) - 1
	for i := 0; i < writes; i++ {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		addr := (state * 2685821657736338717 & mask) * uint64(size)
		sys.Space.Write(clk, addr, buf)
		pr.To(obs.PhaseFlush)
		sys.Space.SFence(clk) // the paper's <sfence + clwbs> sequence
		if clwb {
			sys.Space.CLWB(clk, addr, size)
		}
		pr.To(obs.PhaseHeapWrite)
	}
	pr.To(obs.PhaseFlush)
	sys.Cache.FlushAll(clk)
	pr.Finish()
	res := &Result{Workers: 1, VirtualNanos: clk.Nanos(), Trace: tr.Dump()}
	pr.AddTo(&res.Obs)
	res.Obs.Mem = sys.Dev.Stats().Snapshot()
	res.Obs.CacheSets, res.Obs.CacheWays = sys.Cache.Geometry()
	return res
}

// tpccGrid is the shape Figures 7 and 8 share: every engine under each
// algorithm, th workers, latency classes per transaction type.
func (s Scale) tpccGrid(algos []cc.Algo) (rows []string, cells []Cell) {
	th := s.Threads[0]
	o := s.options(th)
	o.Classes = 5
	for _, ecfg := range s.engines(EngineConfigs()) {
		rows = append(rows, ecfg.Name)
		for _, a := range algos {
			ecfg.CC = a
			cells = append(cells, s.cell(fmt.Sprintf("%s/%s", ecfg.Name, a), "TPC-C", ecfg, s.tpcc(th), o))
		}
	}
	return rows, cells
}

// Fig7 is TPC-C throughput for every engine under each concurrency-control
// algorithm.
func Fig7(s Scale) *Figure {
	th := s.Threads[0]
	t := Table{
		Title:  fmt.Sprintf("Figure 7: TPC-C throughput (MTxn/s), %d threads, %d warehouses\n", th, s.tpcc(th).Warehouses),
		Corner: "engine", RowFmt: "%-24s", ColFmt: "%10s", Values: mtxn,
	}
	for _, a := range s.CC {
		t.Cols = append(t.Cols, a.String())
	}
	t.Rows, t.Cells = s.tpccGrid(s.CC)
	return &Figure{Name: "7", Tables: []Table{t}}
}

// Fig8 is NewOrder and Payment latency (average and 95th percentile) under
// OCC, in virtual microseconds.
func Fig8(s Scale) *Figure {
	t := Table{
		Title:  fmt.Sprintf("Figure 8: TPC-C latency (virtual µs), OCC, %d threads\n", s.Threads[0]),
		Corner: "engine", RowFmt: "%-24s", ColFmt: " %12s",
		Cols: []string{"NewOrd avg", "NewOrd p95", "Paymnt avg", "Paymnt p95"},
		Values: func(_ int, r *Result) []string {
			no, pay := int(tpcc.TxnNewOrder), int(tpcc.TxnPayment)
			var out []string
			for _, n := range []uint64{r.LatAvgNanos[no], r.LatP95Nanos[no], r.LatAvgNanos[pay], r.LatP95Nanos[pay]} {
				out = append(out, fmt.Sprintf("%.2f", float64(n)/1000))
			}
			return out
		},
	}
	t.Rows, t.Cells = s.tpccGrid([]cc.Algo{cc.OCC})
	return &Figure{Name: "8", Tables: []Table{t}}
}

// Fig9 is YCSB throughput for workloads A–F under Uniform and Zipfian(0.99)
// request distributions, every engine, OCC (the paper reports OCC and notes
// other algorithms behave similarly).
func Fig9(s Scale) *Figure {
	th := s.Threads[0]
	t := Table{
		Title:  fmt.Sprintf("Figure 9: YCSB throughput (MTxn/s), OCC, %d threads, %d records\n", th, s.Records),
		Corner: "engine", RowFmt: "%-24s", ColFmt: "%12s", Values: mtxn,
	}
	var wcfgs []ycsb.Config
	for _, w := range s.Workloads {
		for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			wcfgs = append(wcfgs, ycsb.Config{Records: s.Records, Workload: w, Distribution: dist})
			t.Cols = append(t.Cols, fmt.Sprintf("%s/%s", strings.TrimPrefix(w.String(), "YCSB-"), dist.String()[:3]))
		}
	}
	for _, ecfg := range s.engines(EngineConfigs()) {
		ecfg.CC = cc.OCC
		t.Rows = append(t.Rows, ecfg.Name)
		for _, wcfg := range wcfgs {
			name := fmt.Sprintf("%s/%s", wcfg.Workload, wcfg.Distribution)
			t.Cells = append(t.Cells, s.cell(ecfg.Name+"/"+name, name, ecfg, wcfg, s.options(th)))
		}
	}
	return &Figure{Name: "9", Tables: []Table{t}}
}

// Fig11 is the scalability study of Figures 10/11: the ablation engines (Inp,
// Inp+SLW, Inp NoFlush, Inp+HTT, Falcon) across thread counts on TPC-C,
// YCSB-A Uniform and YCSB-A Zipfian, one table per workload.
func Fig11(s Scale) *Figure {
	ycsbA := func(dist ycsb.Distribution) func(int) any {
		return func(int) any { return ycsb.Config{Records: s.Records, Workload: ycsb.A, Distribution: dist} }
	}
	workloads := []struct {
		name string
		cfg  func(th int) any
	}{
		{"TPC-C", func(th int) any { return s.tpcc(th) }},
		{"YCSB-A Uniform", ycsbA(ycsb.Uniform)},
		{"YCSB-A Zipfian", ycsbA(ycsb.Zipfian)},
	}
	fig := &Figure{Name: "11"}
	engines := s.engines(AblationConfigs())
	for _, wl := range workloads {
		t := Table{
			Title:  fmt.Sprintf("Figure 11 (%s): throughput (MTxn/s) by thread count\n", wl.name),
			Corner: "engine", RowFmt: "%-26s", ColFmt: "%10s", Values: mtxn,
			Foot: func() string { return "\n" },
		}
		for _, th := range s.Threads {
			t.Cols = append(t.Cols, strconv.Itoa(th))
		}
		for _, ecfg := range engines {
			t.Rows = append(t.Rows, ecfg.Name)
			for _, th := range s.Threads {
				label := fmt.Sprintf("%s/%s/%d", ecfg.Name, wl.name, th)
				t.Cells = append(t.Cells, s.cell(label, wl.name, ecfg, wl.cfg(th), s.options(th)))
			}
		}
		fig.Tables = append(fig.Tables, t)
	}
	return fig
}

// TupleSizes are Figure 12's columns. The paper sweeps 64 KB – 1 MB on 256 GB
// of PMem; scaled down this crosses the same regimes: redo fits the small log
// window → spills to overflow → overflow dominates.
var TupleSizes = []int{256, 1024, 4096, 16 << 10, 64 << 10}

// Fig12 is the tuple-size study: Falcon vs Inp vs Outp on YCSB-A Uniform
// across tuple sizes at (up to) two thread counts, showing where the small log
// window stops helping.
func Fig12(s Scale) *Figure {
	threads := s.Threads
	if len(threads) > 2 {
		threads = []int{threads[1], threads[len(threads)-1]}
	}
	t := Table{
		Title:  "Figure 12: YCSB-A Uniform throughput (KTxn/s) by tuple size\n",
		Corner: "engine-threads", RowFmt: "%-20s", ColFmt: "%10s",
		Values: func(_ int, r *Result) []string { return []string{fmt.Sprintf("%.1f", r.MTxnPerSec*1000)} },
	}
	for _, sz := range TupleSizes {
		t.Cols = append(t.Cols, fmtSize(sz))
	}
	for _, th := range threads {
		for _, ecfg := range s.engines([]core.Config{core.FalconConfig(), core.InpConfig(), core.OutpConfig()}) {
			row := fmt.Sprintf("%s-%d", ecfg.Name, th)
			t.Rows = append(t.Rows, row)
			for _, size := range TupleSizes {
				fields := 8
				fieldBytes := (size - 8) / fields
				if fieldBytes < 8 {
					fields, fieldBytes = 1, size-8
				}
				// Hold the heap near 256 MB.
				records := min(max(uint64(256<<20/size), 2048), 50_000)
				// Larger tuples need a larger log overflow area and fewer
				// transactions to keep host time in check.
				ecfg.Window.OverflowBytes = size + 64<<10
				o := Options{Workers: th, TxnsPerWorker: s.Txns, WarmupPerWorker: s.Warmup / 2}
				if size >= 16<<10 {
					o.TxnsPerWorker = s.Txns / 4
				}
				c := s.cell(row+"/"+fmtSize(size), "YCSB-A Uniform", ecfg, ycsb.Config{
					Records: records, Fields: fields, FieldBytes: fieldBytes,
					Workload: ycsb.A, Distribution: ycsb.Uniform,
				}, o)
				c.Extra = fmtSize(size)
				t.Cells = append(t.Cells, c)
			}
		}
	}
	return &Figure{Name: "12", Tables: []Table{t}}
}

func fmtSize(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

// Recovery is the §6.5 recovery study: crash a loaded, actively-updating
// database and measure recovery time. Falcon recovers in (virtual)
// milliseconds independent of data size — catalog read + instant NVM-index
// recovery + replay of the tiny log windows — while ZenS-style engines scan
// the whole tuple heap to rebuild their DRAM index, so their recovery time
// grows with the data. The returned reports and the recovered engines'
// snapshots fill in as the cells run, one per cell, nil and zero where a cell
// failed; a snapshot's rec-* phases break its report's TotalNanos down.
func Recovery(s Scale) (*Figure, []*core.RecoveryReport, []obs.Snapshot) {
	th := s.Threads[0]
	engines := s.engines([]core.Config{
		core.FalconConfig(), core.FalconDRAMIndexConfig(), core.InpConfig(), core.ZenSConfig(),
	})
	reports := make([]*core.RecoveryReport, len(engines)*len(s.RecoveryRecords))
	recovered := make([]obs.Snapshot, len(reports))
	t := Table{
		Title:  fmt.Sprintf("Recovery time (virtual ms) vs data size, %d threads\n", th),
		Corner: "engine", RowFmt: "%-24s", ColFmt: "%12s", Quiet: true,
		Values: func(i int, _ *Result) []string {
			return []string{fmt.Sprintf("%.3f", float64(reports[i].TotalNanos)/1e6)}
		},
	}
	for _, records := range s.RecoveryRecords {
		t.Cols = append(t.Cols, fmt.Sprintf("%dk rec", records/1000))
	}
	for _, ecfg := range engines {
		ecfg.Threads = th
		t.Rows = append(t.Rows, ecfg.Name)
		for _, records := range s.RecoveryRecords {
			i := len(t.Cells)
			label := fmt.Sprintf("%s/%dk (pre-crash)", ecfg.Name, records/1000)
			t.Cells = append(t.Cells, Cell{Label: label, Workload: "YCSB-A", Engine: ecfg.Name, Threads: th,
				Run: func() (*Result, error) {
					e, res, err := s.measure(label, ecfg, ycsb.Config{Records: records, Workload: ycsb.A},
						Options{Workers: th, TxnsPerWorker: s.Txns})
					if err != nil {
						return nil, err
					}
					e2, rep, err := core.Recover(e.System().Crash(), ecfg)
					if err != nil {
						return nil, err
					}
					reports[i], recovered[i] = rep, e2.ObsSnapshot()
					return res, nil
				}})
		}
	}
	t.Foot = func() string {
		var b strings.Builder
		b.WriteString("\nBreakdown for the largest configuration:\n")
		for r, ecfg := range engines {
			i := (r+1)*len(s.RecoveryRecords) - 1
			rep, ph := reports[i], &recovered[i].PhaseNanos
			if rep == nil {
				continue
			}
			fmt.Fprintf(&b, "%-24s catalog %8.3f ms  index %8.3f ms  replay %8.3f ms  heap-scan %8.3f ms  (scanned %d tuples, replayed %d records)\n",
				ecfg.Name, float64(ph[obs.PhaseRecCatalog])/1e6, float64(ph[obs.PhaseRecIndex])/1e6,
				float64(ph[obs.PhaseRecReplay])/1e6, float64(ph[obs.PhaseRecHeapScan])/1e6,
				rep.TuplesScanned, rep.RecordsReplayed)
			if s.flags().Stats {
				fmt.Fprintln(&b, recovered[i].Text())
			}
		}
		return b.String()
	}
	return &Figure{Name: "recovery", Tables: []Table{t}}, reports, recovered
}

// Cell returns the figure's cell with the given label.
func (f *Figure) Cell(label string) (Cell, error) {
	for _, c := range f.Cells() {
		if c.Label == label {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("bench: figure %s has no cell %q", f.Name, label)
}
