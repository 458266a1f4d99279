package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"falcon/internal/core"
	"falcon/internal/obs"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

// runParYCSB runs a fixed seeded YCSB-A cell through the deterministic group
// scheduler and returns the full Result serialized as JSON. With group set,
// the engine commits through leader-based group commit — epoch seals then
// ride the round barrier's canonical commit-tail order, which is exactly the
// mechanism these tests must pin down.
func runParYCSB(t *testing.T, procs int, group bool) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ecfg := core.FalconConfig()
	ecfg.GroupCommit = group
	ecfg.Threads = 4
	e, d, err := NewYCSB(ecfg, ycsb.Config{Records: 2000, Fields: 4, FieldBytes: 32, Workload: ycsb.A})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "YCSB-A", Options{Workers: 4, TxnsPerWorker: 60, WarmupPerWorker: 10, ParWorkers: true},
		func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runParTPCC is runParYCSB's TPC-C sibling: the full five-transaction mix,
// including inserts, deletes and scans, through the group scheduler.
func runParTPCC(t *testing.T, procs int, group bool) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ecfg := core.FalconConfig()
	ecfg.GroupCommit = group
	ecfg.Threads = 4
	e, d, err := NewTPCC(ecfg, tpcc.Config{Warehouses: 2, Items: 200, CustomersPerDistrict: 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "TPC-C", Options{Workers: 4, TxnsPerWorker: 30, WarmupPerWorker: 5, Classes: 5, ParWorkers: true},
		func(w int) (int, error) {
			ty, err := d.NextTyped(w)
			return int(ty), err
		})
	if err != nil {
		t.Fatal(err)
	}
	// The execution phase reads frozen trees and the barrier applies writes
	// alone: a restarted B-tree read would be virtual time that depends on the
	// host's schedule.
	for name, ts := range e.ObsSnapshot().Tables {
		if ts.IndexRestarts != 0 {
			t.Fatalf("table %s: %d B-tree reads restarted in group mode", name, ts.IndexRestarts)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParWorkersDeterministicJSON is the benchmark-level determinism gate:
// with worker-parallel cells enabled, the serialized Result must be
// byte-identical whether the host runs the workers on one core or four, for
// both YCSB-A and TPC-C.
func TestParWorkersDeterministicJSON(t *testing.T) {
	for _, group := range []bool{false, true} {
		name := func(s string) string {
			if group {
				return s + "+GC"
			}
			return s
		}
		group := group
		t.Run(name("YCSB-A"), func(t *testing.T) {
			serial := runParYCSB(t, 1, group)
			par := runParYCSB(t, 4, group)
			if string(serial) != string(par) {
				t.Fatalf("YCSB-A JSON differs across GOMAXPROCS:\n 1: %s\n 4: %s", serial, par)
			}
		})
		t.Run(name("TPC-C"), func(t *testing.T) {
			serial := runParTPCC(t, 1, group)
			par := runParTPCC(t, 4, group)
			if string(serial) != string(par) {
				t.Fatalf("TPC-C JSON differs across GOMAXPROCS:\n 1: %s\n 4: %s", serial, par)
			}
		})
	}
}

// TestRunCancelsPhaseOnWorkerError pins down the prompt-abort contract: when
// one worker's transaction function fails, the other workers must stop at
// their next transaction boundary instead of grinding through the full count.
// Group mode makes the bound tight — workers advance in lockstep rounds, so
// nobody can be more than a round or two past the failure point. A failed
// measured phase must also leave the engine disarmed, like a finished one.
func TestRunCancelsPhaseOnWorkerError(t *testing.T) {
	const failAt = 5
	boom := errors.New("injected workload failure")

	t.Run("group", func(t *testing.T) {
		ecfg := core.FalconConfig()
		ecfg.Threads = 4
		e, d, err := NewYCSB(ecfg, ycsb.Config{Records: 2000, Fields: 4, FieldBytes: 32, Workload: ycsb.A})
		if err != nil {
			t.Fatal(err)
		}
		var executed [4]int
		var armed *obs.Tracer
		_, err = Run(e, "YCSB-A", Options{Workers: 4, TxnsPerWorker: 5000, ParWorkers: true,
			Trace: &obs.TraceOptions{Sample: 1}, Contend: true},
			func(w int) (int, error) {
				executed[w]++
				if w == 0 {
					armed = e.Tracer()
				}
				if err := d.Next(w); err != nil {
					return 0, err
				}
				if w == 2 && executed[w] > failAt {
					return 0, boom
				}
				return 0, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("Run returned %v, want the injected error", err)
		}
		for w, n := range executed {
			if n > failAt+2 {
				t.Errorf("worker %d executed %d txns after worker 2 failed at %d; phase not cancelled promptly", w, n, failAt)
			}
		}
		if armed == nil {
			t.Fatal("the measured phase ran without the tracer it asked for")
		}
		if e.Tracer() != nil || e.Contend() != nil {
			t.Errorf("failed phase left the engine armed: tracer %v, observatory %v", e.Tracer() != nil, e.Contend() != nil)
		}
		before := len(armed.Dump().Events)
		if _, err := Run(e, "YCSB-A", Options{Workers: 4, TxnsPerWorker: 20},
			func(w int) (int, error) { return 0, d.Next(w) }); err != nil {
			t.Fatal(err)
		}
		if after := len(armed.Dump().Events); before == 0 || after != before {
			t.Errorf("an untraced run after the failed phase grew the old dump from %d to %d events", before, after)
		}
	})

	t.Run("free-running", func(t *testing.T) {
		ecfg := core.FalconConfig()
		ecfg.Threads = 4
		e, d, err := NewYCSB(ecfg, ycsb.Config{Records: 2000, Fields: 4, FieldBytes: 32, Workload: ycsb.A})
		if err != nil {
			t.Fatal(err)
		}
		const total = 100_000
		var executed [4]int
		_, err = Run(e, "YCSB-A", Options{Workers: 4, TxnsPerWorker: total},
			func(w int) (int, error) {
				executed[w]++
				if w == 2 {
					return 0, fmt.Errorf("worker 2: %w", boom)
				}
				runtime.Gosched()
				return 0, d.Next(w)
			})
		if !errors.Is(err, boom) {
			t.Fatalf("Run returned %v, want the injected error", err)
		}
		for w, n := range executed {
			if n >= total {
				t.Errorf("worker %d ran its full %d transactions; cancellation never reached it", w, total)
			}
		}
	})
}

// TestSweepCellsDeterministicAcrossPar runs a small sweep grid twice — cells
// sequential, then cells concurrent — with worker-parallel execution inside
// each cell, and requires byte-identical JSON. This is the sweep-level
// determinism claim behind `falcon sweep`'s -parworkers flag.
func TestSweepCellsDeterministicAcrossPar(t *testing.T) {
	grid := func(par int) []byte {
		gcfg := core.FalconConfig()
		gcfg.GroupCommit = true
		gcfg.Name += "+GC"
		configs := []core.Config{core.FalconConfig(), core.InpConfig(), gcfg}
		var cells []Cell
		for _, ecfg := range configs {
			ecfg := ecfg
			ecfg.Threads = 4
			cells = append(cells, Cell{
				Label: ecfg.Name,
				Run: func() (*Result, error) {
					e, d, err := NewYCSB(ecfg, ycsb.Config{Records: 2000, Fields: 4, FieldBytes: 32, Workload: ycsb.A})
					if err != nil {
						return nil, err
					}
					return Run(e, "YCSB-A", Options{Workers: 4, TxnsPerWorker: 40, WarmupPerWorker: 10, ParWorkers: true},
						func(w int) (int, error) { return 0, d.Next(w) })
				},
			})
		}
		results := RunCells(cells, par)
		out := make([]*Result, len(results))
		for i := range results {
			if results[i].Err != nil {
				t.Fatal(results[i].Err)
			}
			out[i] = results[i].Res
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := grid(1)
	par := grid(4)
	if string(seq) != string(par) {
		t.Fatalf("sweep JSON differs between par=1 and par=4:\n seq: %s\n par: %s", seq, par)
	}
}
