package bench

import (
	"errors"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/core"
	"falcon/internal/workload/tpcc"
	"falcon/internal/workload/ycsb"
)

func TestRunTPCCSmoke(t *testing.T) {
	ecfg := core.FalconConfig()
	ecfg.Threads = 4
	e, d, err := NewTPCC(ecfg, tpcc.Config{Warehouses: 2, Items: 200, CustomersPerDistrict: 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "TPC-C", Options{Workers: 4, TxnsPerWorker: 50, WarmupPerWorker: 10, Classes: 5},
		func(w int) (int, error) {
			ty, err := d.NextTyped(w)
			return int(ty), err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.MTxnPerSec <= 0 || res.VirtualNanos == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.Committed < 200 {
		t.Fatalf("committed = %d", res.Committed)
	}
	if res.LatAvgNanos[int(tpcc.TxnNewOrder)] == 0 {
		t.Fatal("NewOrder latency not measured")
	}
}

func TestRunYCSBSmoke(t *testing.T) {
	ecfg := core.ZenSConfig()
	ecfg.Threads = 2
	e, d, err := NewYCSB(ecfg, ycsb.Config{Records: 2000, Fields: 4, FieldBytes: 32, Workload: ycsb.A})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "YCSB-A", Options{Workers: 2, TxnsPerWorker: 100, WarmupPerWorker: 50},
		func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		t.Fatal(err)
	}
	if res.MTxnPerSec <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// The attached snapshot covers exactly the measured phase: warmup
	// transactions must not leak into it.
	if res.Obs.Commits != res.Committed {
		t.Fatalf("snapshot commits = %d, result committed = %d", res.Obs.Commits, res.Committed)
	}
	if res.Obs.TotalPhaseNanos() == 0 {
		t.Fatal("snapshot has no phase time")
	}
	if res.LatP50Nanos[0] > res.LatP95Nanos[0] || res.LatP95Nanos[0] > res.LatP99Nanos[0] {
		t.Fatalf("quantiles not monotone: %d/%d/%d",
			res.LatP50Nanos[0], res.LatP95Nanos[0], res.LatP99Nanos[0])
	}
}

func TestEstimateDeviceBytesCoversLoad(t *testing.T) {
	// If the estimate were too small, NewTPCC/NewYCSB above would fail with
	// arena exhaustion; exercise a larger shape here.
	ecfg := core.OutpConfig()
	ecfg.Threads = 8
	_, _, err := NewTPCC(ecfg, tpcc.Config{Warehouses: 4, Items: 500, CustomersPerDistrict: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTPCCRunsUntilTheHeapIsFull is `falcon tpcc -threads 2 -warehouses 2 -cc
// OCC` run past the capacity of the orders table, at a quarter of the tool's
// default customer count so that it takes seconds. Every preset must either
// finish or stop with core.ErrTableFull: when the orders B-tree of the
// out-of-place presets filled before their heap, inserts committed without
// an index entry and Delivery later failed with "key not found".
func TestTPCCRunsUntilTheHeapIsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight presets for thousands of transactions")
	}
	wcfg := tpcc.Config{Warehouses: 2, Items: 2000, CustomersPerDistrict: 30}
	for _, ecfg := range EngineConfigs() {
		ecfg := ecfg
		t.Run(ecfg.Name, func(t *testing.T) {
			t.Parallel()
			ecfg.Threads = 2
			ecfg.CC = cc.OCC
			e, d, err := NewTPCC(ecfg, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(e, "TPC-C", Options{Workers: 2, TxnsPerWorker: 6000, WarmupPerWorker: 100},
				func(w int) (int, error) { return 0, d.Next(w) })
			if err != nil && !errors.Is(err, core.ErrTableFull) {
				t.Fatalf("stopped with %v, want completion or core.ErrTableFull", err)
			}
			t.Logf("ended with: %v", err)
		})
	}
}
