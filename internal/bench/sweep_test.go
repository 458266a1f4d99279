package bench

import (
	"fmt"
	"reflect"
	"testing"

	"falcon/internal/core"
	"falcon/internal/workload/ycsb"
)

// sweepCells builds a small grid of single-worker YCSB cells. Single-worker
// cells are bit-deterministic (one virtual clock, no cross-worker
// interleaving on shared simulated state), so they are the right probe for
// runner-order independence.
func sweepCells(t *testing.T) []Cell {
	t.Helper()
	var cells []Cell
	for _, ecfg := range []core.Config{core.FalconConfig(), core.InpConfig()} {
		for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			eng, d := ecfg, dist
			cells = append(cells, Cell{
				Label: fmt.Sprintf("%s/%s", eng.Name, d),
				Run: func() (*Result, error) {
					cfg := eng
					cfg.Threads = 1
					e, drv, err := NewYCSB(cfg, ycsb.Config{
						Records: 4000, Workload: ycsb.A, Distribution: d,
					})
					if err != nil {
						return nil, err
					}
					return Run(e, "YCSB-A", Options{Workers: 1, TxnsPerWorker: 120, WarmupPerWorker: 30},
						func(w int) (int, error) { return 0, drv.Next(w) })
				},
			})
		}
	}
	return cells
}

// renderTable formats results the way `falcon sweep` renders a figure row, so
// the comparison below is a byte-level "the printed tables match" check.
func renderTable(results []CellResult) string {
	s := ""
	for _, cr := range results {
		if cr.Err != nil {
			s += fmt.Sprintf("%-30s%10s\n", cr.Label, "ERR")
			continue
		}
		s += fmt.Sprintf("%-30s%10.3f%12d%14d\n",
			cr.Label, cr.Res.MTxnPerSec, cr.Res.Obs.Commits, cr.Res.VirtualNanos)
	}
	return s
}

// TestRunCellsParallelMatchesSequential is the determinism guarantee behind
// `falcon sweep` -par: running the grid with concurrent cell runners must
// produce byte-identical tables to a sequential run.
func TestRunCellsParallelMatchesSequential(t *testing.T) {
	seq := RunCells(sweepCells(t), 1)
	par := RunCells(sweepCells(t), 4)

	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	if a, b := renderTable(seq), renderTable(par); a != b {
		t.Fatalf("parallel table differs from sequential:\n--- seq ---\n%s--- par ---\n%s", a, b)
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("cell %d errored: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		a, b := seq[i].Res, par[i].Res
		if a.VirtualNanos != b.VirtualNanos || a.Obs.Commits != b.Obs.Commits || a.Obs.Aborts != b.Obs.Aborts {
			t.Errorf("cell %s: virtual results differ: %d/%d/%d vs %d/%d/%d",
				seq[i].Label, a.VirtualNanos, a.Obs.Commits, a.Obs.Aborts,
				b.VirtualNanos, b.Obs.Commits, b.Obs.Aborts)
		}
		if !reflect.DeepEqual(a.LatHists, b.LatHists) {
			t.Errorf("cell %s: latency histograms differ", seq[i].Label)
		}
	}
}

// TestRunCellsOrderAndLabels checks results come back in cell order even
// when completion order is scrambled by parallelism.
func TestRunCellsOrderAndLabels(t *testing.T) {
	cells := sweepCells(t)
	results := RunCells(cells, len(cells))
	for i := range cells {
		if results[i].Label != cells[i].Label {
			t.Fatalf("result %d is %q, want %q (order not preserved)", i, results[i].Label, cells[i].Label)
		}
	}
}
