package tpcc

import (
	"sync"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/core"
	"falcon/internal/heap"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

func tinyConfig() Config {
	return Config{Warehouses: 2, Items: 200, CustomersPerDistrict: 30}
}

func newLoadedEngine(t *testing.T, ecfg core.Config, cfg Config) (*core.Engine, *Driver) {
	t.Helper()
	if ecfg.Threads == 0 {
		ecfg.Threads = 4
	}
	return newLoadedEngineOn(t, pmem.NewSystem(pmem.Config{DeviceBytes: 512 << 20}), ecfg, cfg)
}

func newLoadedEngineOn(t *testing.T, sys *pmem.System, ecfg core.Config, cfg Config) (*core.Engine, *Driver) {
	t.Helper()
	e, err := core.New(sys, ecfg, TableSpecs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(e, cfg); err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func TestLoadPopulatesAllTables(t *testing.T) {
	cfg := tinyConfig()
	e, _ := newLoadedEngine(t, core.FalconConfig(), cfg)

	buf := make([]byte, e.Table(TWarehouse).Schema().TupleSize())
	if err := e.RunRO(0, func(tx *core.Txn) error {
		return tx.Read(e.Table(TWarehouse), wKey(1), buf)
	}); err != nil {
		t.Fatalf("warehouse 1 missing: %v", err)
	}
	cbuf := make([]byte, e.Table(TCustomer).Schema().TupleSize())
	if err := e.RunRO(0, func(tx *core.Txn) error {
		return tx.Read(e.Table(TCustomer), cKey(2, 10, 30), cbuf)
	}); err != nil {
		t.Fatalf("last customer missing: %v", err)
	}
	sbuf := make([]byte, e.Table(TStock).Schema().TupleSize())
	if err := e.RunRO(0, func(tx *core.Txn) error {
		return tx.Read(e.Table(TStock), sKey(2, 200), sbuf)
	}); err != nil {
		t.Fatalf("stock missing: %v", err)
	}
}

func TestMixRatios(t *testing.T) {
	var counts [5]int
	for roll := 0; roll < 100; roll++ {
		counts[Mix(roll)]++
	}
	want := [5]int{45, 43, 4, 4, 4}
	if counts != want {
		t.Fatalf("mix = %v, want %v", counts, want)
	}
}

func TestNewOrderCreatesOrderAndLines(t *testing.T) {
	cfg := tinyConfig()
	e, d := newLoadedEngine(t, core.FalconConfig(), cfg)
	if err := d.NewOrderTxn(0); err != nil && err != core.ErrRollback {
		t.Fatal(err)
	}
	// next_o_id of at least one district of warehouse 1 advanced.
	ds := e.Table(TDistrict).Schema()
	dbuf := make([]byte, ds.TupleSize())
	advanced := false
	for did := 1; did <= Districts; did++ {
		if err := e.RunRO(0, func(tx *core.Txn) error {
			return tx.Read(e.Table(TDistrict), dKey(1, did), dbuf)
		}); err != nil {
			t.Fatal(err)
		}
		if ds.GetInt64(dbuf, DNextOID) > int64(cfg.CustomersPerDistrict)+1 {
			advanced = true
		}
	}
	// The transaction may have rolled back (1%); tolerate only if counts say so.
	if !advanced && d.counts[TxnNewOrder].Load() > 0 {
		t.Fatal("NewOrder committed but no district next_o_id advanced")
	}
}

func TestAllTransactionTypesRun(t *testing.T) {
	cfg := tinyConfig()
	_, d := newLoadedEngine(t, core.FalconConfig(), cfg)
	for ty := TxnNewOrder; ty <= TxnStockLevel; ty++ {
		for i := 0; i < 5; i++ {
			if err := d.Exec(i%4, ty); err != nil {
				t.Fatalf("%v run %d: %v", ty, i, err)
			}
		}
	}
	counts := d.Counts()
	for ty := TxnNewOrder; ty <= TxnStockLevel; ty++ {
		if counts[ty.String()] == 0 {
			t.Errorf("%v never committed", ty)
		}
	}
}

func TestMixedWorkloadAllEngines(t *testing.T) {
	for _, ecfg := range []core.Config{
		core.FalconConfig(), core.FalconDRAMIndexConfig(), core.InpConfig(),
		core.OutpConfig(), core.ZenSConfig(),
	} {
		ecfg := ecfg
		t.Run(ecfg.Name, func(t *testing.T) {
			cfg := tinyConfig()
			_, d := newLoadedEngine(t, ecfg, cfg)
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if err := d.Next(w); err != nil {
							errs[w] = err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
		})
	}
}

func TestMixedWorkloadAllCCAlgorithms(t *testing.T) {
	for _, algo := range cc.All {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			ecfg := core.FalconConfig()
			ecfg.CC = algo
			cfg := tinyConfig()
			_, d := newLoadedEngine(t, ecfg, cfg)
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 30; i++ {
						if err := d.Next(w); err != nil {
							errs[w] = err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
		})
	}
}

func TestDistrictOrderConsistency(t *testing.T) {
	cfg := tinyConfig()
	e, d := newLoadedEngine(t, core.FalconConfig(), cfg)
	for i := 0; i < 60; i++ {
		if err := d.Exec(i%4, TxnNewOrder); err != nil {
			t.Fatal(err)
		}
	}
	checkConsistency(t, e, cfg)
}

// checkConsistency checks TPC-C's consistency conditions 1 to 4 (spec 3.3.2)
// on a quiescent engine: a warehouse's W_YTD is the sum of its districts'
// D_YTD (Payment adds the same amount to both, so a lost update on either row
// opens a gap); for each district the order D_NEXT_O_ID - 1 exists and the
// order D_NEXT_O_ID does not (NewOrder bumps the counter and inserts the order
// in one transaction); the district's NEW-ORDER rows are the orders
// max(NO_O_ID) - min(NO_O_ID) + 1 in a row (NewOrder appends, Delivery takes
// the oldest); and the sum of its orders' O_OL_CNT is the number of its
// ORDER-LINE rows. The last two read the tables the transactions scan with a
// column bound, so this reads them whole.
func checkConsistency(t *testing.T, e *core.Engine, cfg Config) {
	t.Helper()
	read := func(tbl *core.Table, key uint64, buf []byte) error {
		return e.RunRO(0, func(tx *core.Txn) error { return tx.Read(tbl, key, buf) })
	}
	// scan calls fn on each row of tbl from the key from while the key's bits
	// above shift equal from's.
	scan := func(tbl *core.Table, from uint64, shift int, fn func(key uint64, payload []byte)) {
		t.Helper()
		if err := e.RunRO(0, func(tx *core.Txn) error {
			_, err := tx.Scan(tbl, from, 0, func(k uint64, payload []byte) bool {
				if k>>shift != from>>shift {
					return false
				}
				fn(k, payload)
				return true
			})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	wt, dt, ot := e.Table(TWarehouse), e.Table(TDistrict), e.Table(TOrder)
	ws, ds, os := wt.Schema(), dt.Schema(), ot.Schema()
	wbuf := make([]byte, ws.TupleSize())
	dbuf := make([]byte, ds.TupleSize())
	obuf := make([]byte, os.TupleSize())
	for w := 1; w <= cfg.Warehouses; w++ {
		if err := read(wt, wKey(w), wbuf); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for did := 1; did <= Districts; did++ {
			if err := read(dt, dKey(w, did), dbuf); err != nil {
				t.Fatal(err)
			}
			sum += ds.GetInt64(dbuf, DYtd)
			next := int(ds.GetInt64(dbuf, DNextOID))
			if err := read(ot, oKey(w, did, next-1), obuf); err != nil {
				t.Errorf("w%d d%d: order %d (next_o_id-1) missing: %v", w, did, next-1, err)
			}
			if err := read(ot, oKey(w, did, next), obuf); err == nil {
				t.Errorf("w%d d%d: order %d (next_o_id) already exists", w, did, next)
			}

			lo, hi, rows := uint64(1<<63), uint64(0), uint64(0)
			scan(e.Table(TNewOrder), oKeyPrefix(w, did), 34, func(k uint64, _ []byte) {
				lo, hi, rows = min(lo, k), max(hi, k), rows+1
			})
			if rows > 0 && hi-lo+1 != rows {
				t.Errorf("w%d d%d: NEW-ORDER holds %d rows, orders %d to %d", w, did, rows, lo&0x3FFFFFFFF, hi&0x3FFFFFFFF)
			}
			var olCnt, lines int64
			scan(ot, oKeyPrefix(w, did), 34, func(_ uint64, payload []byte) { olCnt += os.GetInt64(payload, OOlCnt) })
			scan(e.Table(TOrderLine), olKeyPrefix(w, did, 0), 38, func(uint64, []byte) { lines++ })
			if olCnt != lines {
				t.Errorf("w%d d%d: sum(O_OL_CNT) %d, ORDER-LINE rows %d", w, did, olCnt, lines)
			}
		}
		if ytd := ws.GetInt64(wbuf, WYtd); ytd != sum {
			t.Errorf("w%d: W_YTD %d - sum(D_YTD) %d = %d", w, ytd, sum, ytd-sum)
		}
	}
}

// TestConsistencyAfterMix runs the mix on four workers, free-running and
// through the group scheduler, under every CC algorithm, on an in-place and an
// out-of-place engine and on ZenS (whose tuple cache serves reads whole when
// the statement bounds them), and then checks conditions 1 to 4. A lost update shows
// here as a W_YTD gap in the millions (Payment's read-modify-write of the
// warehouse and district rows); version GC at a horizon above a lagging
// worker's next TID as "StockLevel: core: key not found". Group mode interleaves
// the workers only at safe points, so its cells see fewer interleavings than
// the free-running ones, but every one of them again on the next run.
func TestConsistencyAfterMix(t *testing.T) {
	calls, cfg := 600, Config{Warehouses: 2, Items: 2000, CustomersPerDistrict: 120}
	if testing.Short() {
		calls, cfg = 100, tinyConfig() // the race lane: most of a cell is its load
	}
	for _, ecfg := range []core.Config{core.FalconConfig(), core.OutpConfig(), core.ZenSConfig()} {
		for _, algo := range cc.All {
			for _, group := range []bool{false, true} {
				mode := "free"
				if group {
					mode = "group"
				}
				t.Run(ecfg.Name+"/"+algo.String()+"/"+mode, func(t *testing.T) {
					ecfg.CC = algo
					e, d := newLoadedEngine(t, ecfg, cfg)
					errs := make([]error, 4)
					work := func(w int) {
						for i := 0; i < calls && errs[w] == nil; i++ {
							errs[w] = d.Next(w)
						}
					}
					if group {
						e.RunGroup(4, work)
					} else {
						var wg sync.WaitGroup
						for w := 0; w < 4; w++ {
							wg.Add(1)
							go func() { defer wg.Done(); work(w) }()
						}
						wg.Wait()
					}
					for w, err := range errs {
						if err != nil {
							t.Fatalf("worker %d: %v", w, err)
						}
					}
					checkConsistency(t, e, cfg)
				})
			}
		}
	}
}

func TestDeliveryClearsNewOrders(t *testing.T) {
	cfg := tinyConfig()
	e, d := newLoadedEngine(t, core.FalconConfig(), cfg)
	before := countNewOrders(t, e, 1)
	if before == 0 {
		t.Fatal("loader created no undelivered orders")
	}
	if err := d.DeliveryTxn(0); err != nil {
		t.Fatal(err)
	}
	after := countNewOrders(t, e, 1)
	if after >= before {
		t.Fatalf("delivery removed no new-orders (%d -> %d)", before, after)
	}
}

func countNewOrders(t *testing.T, e *core.Engine, w int) int {
	t.Helper()
	n := 0
	err := e.RunRO(0, func(tx *core.Txn) error {
		n = 0
		_, err := tx.Scan(e.Table(TNewOrder), oKeyPrefix(w, 1), 0, func(k uint64, _ []byte) bool {
			if int(k>>40) != w {
				return false
			}
			n++
			return true
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCrashRecoveryPreservesTPCC(t *testing.T) {
	cfg := tinyConfig()
	ecfg := core.FalconConfig()
	e, d := newLoadedEngine(t, ecfg, cfg)
	for i := 0; i < 40; i++ {
		if err := d.Next(i % 4); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot an invariant source before crash.
	ds := e.Table(TDistrict).Schema()
	dbuf := make([]byte, ds.TupleSize())
	wantNext := map[uint64]int64{}
	for w := 1; w <= cfg.Warehouses; w++ {
		for did := 1; did <= Districts; did++ {
			if err := e.RunRO(0, func(tx *core.Txn) error {
				return tx.Read(e.Table(TDistrict), dKey(w, did), dbuf)
			}); err != nil {
				t.Fatal(err)
			}
			wantNext[dKey(w, did)] = ds.GetInt64(dbuf, DNextOID)
		}
	}

	sys2 := e.System().Crash()
	e2, _, err := core.Recover(sys2, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range wantNext {
		if err := e2.RunRO(0, func(tx *core.Txn) error {
			return tx.Read(e2.Table(TDistrict), key, dbuf)
		}); err != nil {
			t.Fatal(err)
		}
		if got := ds.GetInt64(dbuf, DNextOID); got != want {
			t.Fatalf("district %x next_o_id = %d after crash, want %d", key, got, want)
		}
	}
	// And the engine keeps working. The new driver's history keys start above
	// every row the heap holds, which the workers committed unevenly.
	d2, err := NewDriver(e2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := e2.Table(THistory)
	var last uint64
	hist.Heap().Scan(sim.NewClock(), func(_, _ uint64, flags uint8, payload []byte) {
		if flags&heap.FlagOccupied != 0 && flags&heap.FlagDeleted == 0 {
			last = max(last, hist.Schema().GetUint64(payload, HKey))
		}
	})
	if d2.hbase != last+1 {
		t.Fatalf("history keys resume at %d, the heap's last is %d", d2.hbase, last)
	}
	for i := 0; i < 10; i++ {
		if err := d2.Next(i % 4); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeliveryCostDoesNotAge: a Delivery call costs the same virtual time on
// an old database as on a fresh one. Each of its ten transactions starts with
// a scan for the district's oldest NEW-ORDER row; when emptied B-tree leaves
// stayed chained, that scan walked every leaf earlier Deliveries had drained
// and the call's cost grew with the age of the database.
func TestDeliveryCostDoesNotAge(t *testing.T) {
	if testing.Short() {
		t.Skip("one worker, virtual time only: nothing for the race lane, which it holds up for 77 s")
	}
	const calls = 30_000
	cfg := tinyConfig()
	// One worker sends every NewOrder (45 % of the calls) to its home
	// warehouse; the order tables hold OrderHeadroom times the preload.
	preload := cfg.Warehouses * Districts * cfg.CustomersPerDistrict
	cfg.OrderHeadroom = 2 + calls*45/100/preload
	ecfg := core.FalconConfig()
	ecfg.Threads = 1 // or the one worker fills its share of each heap early
	// A cache that holds the whole database: the comparison is about the
	// tree, not about how much of a growing database stays cached.
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 512 << 20, CacheBytes: 64 << 20})
	e, d := newLoadedEngineOn(t, sys, ecfg, cfg)
	clk := e.Clock(0)
	// oldest is the virtual cost of Delivery's first step over the ten
	// districts, on a second pass so that every node it loads is cached.
	oldest := func() uint64 {
		var cost uint64
		for pass := 0; pass < 2; pass++ {
			before := clk.Nanos()
			for did := 1; did <= Districts; did++ {
				if err := e.RunRO(0, func(tx *core.Txn) error {
					_, err := tx.Scan(d.newOrder, oKeyPrefix(1, did), 1, func(uint64, []byte) bool { return false })
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			cost = clk.Nanos() - before
		}
		return cost
	}
	scanFresh := oldest()
	var ns, n [10]uint64
	for i := 0; i < calls; i++ {
		before := clk.Nanos()
		typ, err := d.NextTyped(0)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if typ == TxnDelivery {
			ns[i*10/calls] += clk.Nanos() - before
			n[i*10/calls]++
		}
	}
	first, last := float64(ns[0])/float64(n[0]), float64(ns[9])/float64(n[9])
	t.Logf("virtual ns per Delivery call: %.0f in the first tenth (%d calls), %.0f in the last (%d calls)", first, n[0], last, n[9])
	if n[0] < 50 || n[9] < 50 {
		t.Fatalf("too few Delivery calls to compare: %v", n)
	}
	if scanAged := oldest(); float64(scanAged) > 1.25*float64(scanFresh) {
		t.Fatalf("finding the oldest NEW-ORDER of ten districts: %d virtual ns after %d calls, %d before", scanAged, calls, scanFresh)
	} else {
		t.Logf("finding the oldest NEW-ORDER of ten districts: %d virtual ns before, %d after", scanFresh, scanAged)
	}
	if last > 1.25*first {
		t.Fatalf("Delivery aged: %.0f virtual ns per call in the last tenth, %.0f in the first (limit 1.25x)", last, first)
	}
}
