package bench

import (
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/core"
	"falcon/internal/obs"
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
	if res.Obs.Commits < 200 {
		t.Fatalf("committed = %d", res.Obs.Commits)
	}
	if res.LatAvgNanos[int(tpcc.TxnNewOrder)] == 0 {
		t.Fatal("NewOrder latency not measured")
	}
}

// TestNoFlushPresetsIssueNoFlush: a No Flush preset issues no clwb, the
// B-tree's flush of the nodes an ascending run leaves behind included, while
// Falcon's TPC-C indexes do issue those trains.
func TestNoFlushPresetsIssueNoFlush(t *testing.T) {
	for _, ecfg := range []core.Config{core.FalconNoFlushConfig(), core.InpNoFlushConfig(), core.ZenSNoFlushConfig(), core.FalconConfig()} {
		t.Run(ecfg.Name, func(t *testing.T) {
			ecfg.Threads = 2
			e, d, err := NewTPCC(ecfg, tpcc.Config{Warehouses: 2, Items: 200, CustomersPerDistrict: 30})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(e, "TPC-C", Options{Workers: 2, TxnsPerWorker: 100, WarmupPerWorker: 10, Classes: 5},
				func(w int) (int, error) {
					ty, err := d.NextTyped(w)
					return int(ty), err
				})
			if err != nil {
				t.Fatal(err)
			}
			m := res.Obs.Mem
			if ecfg.Flush != core.FlushNone {
				if m.FlushTrains == 0 {
					t.Errorf("%d commits issued no flush train", res.Obs.Commits)
				}
				return
			}
			if m.ClwbWritebacks != 0 || m.FlushTrains != 0 {
				t.Errorf("%d clwb write-backs and %d flush trains, want none", m.ClwbWritebacks, m.FlushTrains)
			}
		})
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
	if res.Obs.Commits != e.Commits() {
		t.Fatalf("snapshot commits = %d, engine committed = %d since warmup", res.Obs.Commits, e.Commits())
	}
	if res.Obs.TotalPhaseNanos() == 0 {
		t.Fatal("snapshot has no phase time")
	}
	if res.LatP50Nanos[0] > res.LatP95Nanos[0] || res.LatP95Nanos[0] > res.LatP99Nanos[0] {
		t.Fatalf("quantiles not monotone: %d/%d/%d",
			res.LatP50Nanos[0], res.LatP95Nanos[0], res.LatP99Nanos[0])
	}
}

// TestFreeRunningGroupCommit runs Falcon with group commit and four
// free-running workers on skewed YCSB-A, the configuration of `falcon serve
// -groupcommit` (figure cells run under the group-mode token). Each
// publisher helps seal expired epochs while the others enlist into them and
// reclaim log slots, so under `make race` this is the lane that sees the
// board's pending list from several workers at once.
func TestFreeRunningGroupCommit(t *testing.T) {
	ecfg := core.FalconConfig()
	ecfg.GroupCommit = true
	ecfg.Threads = 4
	e, d, err := NewYCSB(ecfg, ycsb.Config{
		Records: 2000, Fields: 4, FieldBytes: 32,
		Workload: ycsb.A, Distribution: ycsb.Zipfian,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, "YCSB-A", Options{Workers: 4, TxnsPerWorker: 2000},
		func(w int) (int, error) { return 0, d.Next(w) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.Commits != 4*2000 {
		t.Errorf("committed %d of %d transactions", res.Obs.Commits, 4*2000)
	}
	if res.Obs.Epochs.Sealed == 0 {
		t.Error("no durability epoch sealed: the run never exercised group commit")
	}
}

// TestEveryEventReachesEachConsumerOnce arms the tracer (every transaction
// sampled, a ring that drops nothing) and the observatory on a two-worker
// YCSB-A cell and holds the three ledgers against one another: what the
// memory system counted, what the trace recorded and what the observatory
// attributed are the same events, and a transaction's outcome is in the
// counts, the taxonomy and the trace exactly once. A disarmed engine then
// leaves both consumers as they were.
func TestEveryEventReachesEachConsumerOnce(t *testing.T) {
	ecfg := core.FalconConfig()
	ecfg.Threads = 2
	e, d, err := NewYCSB(ecfg, ycsb.Config{Records: 20000, Workload: ycsb.A})
	if err != nil {
		t.Fatal(err)
	}
	var tracer *obs.Tracer
	var observatory *obs.Observatory
	opts := Options{Workers: 2, TxnsPerWorker: 1500, WarmupPerWorker: 100,
		Trace: &obs.TraceOptions{Sample: 1, RingCap: 1 << 18}, Contend: true}
	res, err := Run(e, "YCSB-A", opts, func(w int) (int, error) {
		if w == 0 {
			tracer, observatory = e.Tracer(), e.Contend()
		}
		return 0, d.Next(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Dropped != 0 {
		t.Fatalf("ring dropped %d events; the comparison needs all of them", res.Trace.Dropped)
	}

	type txnKey struct {
		worker int32
		tid    uint64
	}
	var evicts uint64
	txns := map[txnKey][]obs.Event{}
	segs := map[txnKey][]obs.Event{}
	for _, ev := range res.Trace.Events {
		k := txnKey{ev.Worker, ev.TID}
		switch ev.Kind {
		case obs.EvXPEvict:
			evicts++
		case obs.EvTxn:
			txns[k] = append(txns[k], ev)
		case obs.EvPhase:
			segs[k] = append(segs[k], ev)
		}
	}
	var attributed uint64
	for _, n := range res.Obs.Contend.BankEvictions {
		attributed += n
	}
	if evicts == 0 || evicts != attributed || evicts != res.Obs.Mem.MediaWrites {
		t.Errorf("XPBuffer evictions: %d traced, %d attributed to banks, %d media writes counted", evicts, attributed, res.Obs.Mem.MediaWrites)
	}

	var ended uint64
	for k, evs := range txns {
		ended += uint64(len(evs))
		if len(evs) != 1 {
			t.Fatalf("worker %d tid %#x ended %d times", k.worker, k.tid, len(evs))
		}
		at := evs[0].Start
		ss := segs[k]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		for _, sg := range ss {
			if sg.Start != at {
				t.Fatalf("worker %d tid %#x: phase segment starts at %d, the one before ended at %d", k.worker, k.tid, sg.Start, at)
			}
			at = sg.End
		}
		if at != evs[0].End {
			t.Fatalf("worker %d tid %#x: segments end at %d, the transaction at %d", k.worker, k.tid, at, evs[0].End)
		}
	}
	if len(segs) != len(txns) {
		t.Errorf("%d transactions have phase segments, %d have an end", len(segs), len(txns))
	}
	if ended != res.Obs.Commits+res.Obs.Aborts {
		t.Errorf("%d transaction ends traced, %d commits + %d aborts counted", ended, res.Obs.Commits, res.Obs.Aborts)
	}
	var reasons uint64
	for _, n := range res.Obs.AbortCounts {
		reasons += n
	}
	if reasons != res.Obs.Aborts {
		t.Errorf("abort reasons sum to %d, aborts %d", reasons, res.Obs.Aborts)
	}

	// Run disarmed on return; another run must reach neither consumer.
	if e.Tracer() != nil || e.Contend() != nil {
		t.Fatal("Run left the engine armed")
	}
	report, _ := json.Marshal(observatory.Report())
	if _, err := Run(e, "YCSB-A", Options{Workers: 2, TxnsPerWorker: 300},
		func(w int) (int, error) { return 0, d.Next(w) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tracer.Dump(), res.Trace) {
		t.Error("a disarmed run changed the old tracer's dump")
	}
	if after, _ := json.Marshal(observatory.Report()); string(after) != string(report) {
		t.Error("a disarmed run changed the old observatory's report")
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
