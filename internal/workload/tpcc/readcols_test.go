package tpcc

import (
	"testing"

	"falcon/internal/core"
	"falcon/internal/pmem"
)

// TestColumnBoundLineBudget pins the NVM cache lines (hits + misses) that a
// TPC-C statement's read touches with its column bound and without it. The
// engine keeps its indexes in DRAM, so the lines counted are the heap's: the
// slot's flag word (line 0, one access) and then the payload's lines from slot
// byte 16. A customer row is 445 B: without c_data it is 195 B, lines 0-3
// instead of 0-7. An order_line row is 72 B: without ol_dist_info it is 48 B,
// line 0 instead of lines 0-1.
func TestColumnBoundLineBudget(t *testing.T) {
	ecfg := core.FalconDRAMIndexConfig()
	ecfg.Threads = 1
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 512 << 20})
	e, d := newLoadedEngineOn(t, sys, ecfg, tinyConfig())
	buf := make([]byte, d.customer.Schema().TupleSize())
	cost := func(name string, want uint64, op func(tx *core.Txn) error) {
		t.Helper()
		before := sys.Dev.Stats().Snapshot()
		if err := e.RunRO(0, op); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := sys.Dev.Stats().Snapshot().Sub(before)
		if got := s.CacheHits + s.CacheMisses; got != want {
			t.Errorf("%s touched %d lines, want %d", name, got, want)
		}
	}
	customer := func(cols int) func(tx *core.Txn) error {
		return func(tx *core.Txn) error { return tx.ReadCols(d.customer, cKey(1, 1, 1), cols, buf) }
	}
	orderLine := func(cols int) func(tx *core.Txn) error {
		return func(tx *core.Txn) error {
			n, err := tx.ScanCols(d.orderLine, olKeyPrefix(1, 1, 1), 1, cols, func(uint64, []byte) bool { return true })
			if err == nil && n != 1 {
				t.Errorf("order_line scan visited %d rows, want 1", n)
			}
			return err
		}
	}
	cost("customer, whole row", 1+8, customer(d.customer.Schema().NumColumns()))
	cost("customer without c_data", 1+4, customer(CData))
	cost("order_line scan row, whole", 1+2, orderLine(d.orderLine.Schema().NumColumns()))
	cost("order_line scan row without ol_dist_info", 1+1, orderLine(OLDistInfo))
}
