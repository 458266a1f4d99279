package core

import (
	"testing"

	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/pmem"
)

// wideSchema spreads a tuple over four lines of its slot: a and b share line 0
// with the 16 B header, c sits in line 3 (payload byte 224 is slot byte 240).
func wideSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "a", Kind: layout.Int64},
		layout.Column{Name: "b", Kind: layout.Int64},
		layout.Column{Name: "pad", Kind: layout.Bytes, Size: 200},
		layout.Column{Name: "c", Kind: layout.Int64},
	)
}

// oneCommit builds a two-worker engine holding key 1 (inserted by worker 1, so
// worker 0's hot set has never seen it), runs fn as one transaction on worker
// 0, and returns the CLWB line write-backs that commit issued and the hot-set
// probes it made.
func oneCommit(t *testing.T, cfg Config, fn func(tx *Txn, tb *Table) error) (flushLines uint64, hits, misses uint64) {
	t.Helper()
	cfg.Threads = 2
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
	e, err := New(sys, cfg, []TableSpec{{Name: "w", Schema: wideSchema(), Capacity: 64, IndexKind: index.Hash}})
	if err != nil {
		t.Fatal(err)
	}
	tb := e.Table("w")
	row := make([]byte, tb.Schema().TupleSize())
	tb.Schema().PutUint64(row, 0, 1)
	if err := e.Run(1, func(tx *Txn) error { return tx.Insert(tb, 1, row) }); err != nil {
		t.Fatal(err)
	}
	plan := &pmem.FaultPlan{} // N == 0: count only
	sys.SetFaults(plan)
	before := e.ObsSnapshot().Hot
	if err := e.Run(0, func(tx *Txn) error { return fn(tx, tb) }); err != nil {
		t.Fatal(err)
	}
	sys.SetFaults(nil)
	d := e.ObsSnapshot().Hot.Sub(before)
	return plan.Counts()[pmem.FaultFlush], d.Hits, d.Misses
}

// TestOneWriteBackPerSlot: a commit decides and writes back each slot it wrote
// once, however many ops wrote it — Delivery's C_BALANCE then C_DELIVERY_CNT on
// one customer row is one hot-set probe and one write-back of their line.
// Lines are counted as the CLWBs FlushAll issues beyond FlushNone's (the log's
// own write-backs are the same under both).
func TestOneWriteBackPerSlot(t *testing.T) {
	v := make([]byte, 8)
	v[0] = 7
	cases := []struct {
		name  string
		lines uint64
		fn    func(tx *Txn, tb *Table) error
	}{
		{"two fields in line 0", 1, func(tx *Txn, tb *Table) error {
			if err := tx.UpdateField(tb, 1, 1, v); err != nil {
				return err
			}
			return tx.UpdateField(tb, 1, 2, v)
		}},
		{"insert then update", 4, func(tx *Txn, tb *Table) error {
			row := make([]byte, tb.Schema().TupleSize())
			tb.Schema().PutUint64(row, 0, 2)
			if err := tx.Insert(tb, 2, row); err != nil {
				return err
			}
			return tx.UpdateField(tb, 2, 4, v)
		}},
		{"updates in disjoint lines", 2, func(tx *Txn, tb *Table) error {
			if err := tx.UpdateField(tb, 1, 4, v); err != nil {
				return err
			}
			return tx.UpdateField(tb, 1, 1, v)
		}},
		{"update then delete", 2, func(tx *Txn, tb *Table) error {
			if err := tx.UpdateField(tb, 1, 4, v); err != nil {
				return err
			}
			return tx.Delete(tb, 1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			all, _, _ := oneCommit(t, FalconAllFlushConfig(), c.fn)
			none, _, _ := oneCommit(t, FalconNoFlushConfig(), c.fn)
			if all-none != c.lines {
				t.Errorf("FlushAll wrote back %d data lines, want %d (each line of the slot once)", all-none, c.lines)
			}
			_, hits, misses := oneCommit(t, FalconConfig(), c.fn)
			if hits+misses != 1 || hits != 0 {
				t.Errorf("FlushSelective: %d hot-set hits and %d misses, want one probe, a miss", hits, misses)
			}
		})
	}
}
