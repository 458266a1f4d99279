package tpcc

import (
	"errors"
	"fmt"
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
// line 0 instead of lines 0-1. A stock row is 330 B, lines 0-5. NewOrder takes
// it for update (the preset's 2PL loads the flag word twice: the lock's
// liveness check and the read's), reads its counters (payload 0-39, line 0),
// then district d's s_dist_xx (payload 40+24(d-1), 24 B) from the slot it
// holds, without the flag word: one or two of lines 0-4 (s_data shares line 4
// with s_dist_09 and s_dist_10), never line 5, s_data's alone.
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

	// The stock statements run in a read-write attempt that rolls back; what
	// its begin and abort touch (the log window) is measured bare and taken off.
	rw := func(op func(tx *core.Txn) error) uint64 {
		t.Helper()
		before := sys.Dev.Stats().Snapshot()
		err := e.Run(0, func(tx *core.Txn) error {
			if err := op(tx); err != nil {
				return err
			}
			return core.ErrRollback
		})
		if !errors.Is(err, core.ErrRollback) {
			t.Fatalf("stock statements: %v", err)
		}
		s := sys.Dev.Stats().Snapshot().Sub(before)
		return s.CacheHits + s.CacheMisses
	}
	bare := rw(func(*core.Txn) error { return nil })
	if got := rw(func(tx *core.Txn) error { return tx.ReadForUpdate(d.stock, sKey(1, 1), buf) }) - bare; got != 2+6 {
		t.Errorf("stock, whole row for update, touched %d lines, want %d", got, 2+6)
	}
	ss := d.stock.Schema()
	for did := 1; did <= Districts; did++ {
		col := SDist01 + did - 1
		first, last := (16+ss.Offset(col))/64, (16+ss.Offset(col)+24-1)/64
		if last >= 5 {
			t.Fatalf("s_dist_%02d reaches line %d, s_data's", did, last)
		}
		want := bare + 2 + 1 + uint64(last-first+1) // flag word twice, counters, s_dist_xx
		got := rw(func(tx *core.Txn) error {
			if err := tx.ReadColsForUpdate(d.stock, sKey(1, 1), SRemoteCnt+1, buf); err != nil {
				return err
			}
			return tx.ReadField(d.stock, sKey(1, 1), col, buf)
		})
		if got != want {
			t.Errorf("NewOrder's stock statements for district %d touched %d lines, want %d", did, got-bare, want-bare)
		}
	}
}

// TestStockDistColumnsKeepTheLayout: s_dist_01 … s_dist_10 are the spec's ten
// 24 B columns at the bytes the one 240 B column had, between the counters
// and s_data, in a 330 B tuple.
func TestStockDistColumnsKeepTheLayout(t *testing.T) {
	s := stockSchema()
	if got := s.TupleSize(); got != 330 {
		t.Fatalf("stock tuple is %d B, want 330", got)
	}
	for did := 1; did <= Districts; did++ {
		c := s.Column(SDist01 + did - 1)
		if want := fmt.Sprintf("s_dist_%02d", did); c.Name != want || c.Size != 24 || s.Offset(SDist01+did-1) != 40+24*(did-1) {
			t.Errorf("column %d is %s, %d B at %d; want %s, 24 B at %d", SDist01+did-1, c.Name, c.Size, s.Offset(SDist01+did-1), want, 40+24*(did-1))
		}
	}
	if s.Offset(SData) != 280 || s.Column(SData).Name != "s_data" {
		t.Errorf("s_data at %d named %s, want at 280", s.Offset(SData), s.Column(SData).Name)
	}
}
