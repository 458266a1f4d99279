package core

import (
	"bytes"
	"errors"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/pmem"
)

// bigSchema has a payload much larger than the default window slot.
func bigSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "blob", Kind: layout.Bytes, Size: 12 << 10},
	)
}

// TestLogWindowSpillDurable covers the Figure 12 regime: a transaction whose
// redo exceeds the window slot spills into the flushed overflow region and
// must still be crash-durable.
func TestLogWindowSpillDurable(t *testing.T) {
	cfg := FalconConfig()
	cfg.Threads = 2
	cfg.Window.SlotBytes = 2048
	cfg.Window.OverflowBytes = 64 << 10
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
	e, err := New(sys, cfg, []TableSpec{{
		Name: "big", Schema: bigSchema(), Capacity: 64, KeyCol: 0, IndexKind: index.Hash,
	}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("big")
	s := tbl.Schema()
	payload := make([]byte, s.TupleSize())
	s.PutUint64(payload, 0, 1)
	blob := bytes.Repeat([]byte{0x5A}, 12<<10)
	s.PutBytes(payload, 1, blob)

	if err := e.Run(0, func(tx *Txn) error {
		return tx.Insert(tbl, 1, payload) // ~12 KiB redo > 2 KiB slot
	}); err != nil {
		t.Fatal(err)
	}

	e2, rep, err := Recover(e.System().Crash(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsReplayed == 0 {
		t.Fatal("spilled record not replayed")
	}
	buf := make([]byte, s.TupleSize())
	if err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(e2.Table("big"), 1, buf) }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.GetBytes(buf, 1), blob) {
		t.Fatal("spilled insert corrupted across crash")
	}
}

// TestTxnTooLargeSurfaced: exceeding even the overflow region must fail the
// transaction cleanly (ErrTxnTooLarge), leaving the engine usable.
func TestTxnTooLargeSurfaced(t *testing.T) {
	cfg := FalconConfig()
	cfg.Threads = 1
	cfg.Window.SlotBytes = 1024
	cfg.Window.OverflowBytes = 2048
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
	e, err := New(sys, cfg, []TableSpec{{
		Name: "big", Schema: bigSchema(), Capacity: 64, KeyCol: 0, IndexKind: index.Hash,
	}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("big")
	payload := make([]byte, tbl.Schema().TupleSize())
	err = e.Run(0, func(tx *Txn) error { return tx.Insert(tbl, 1, payload) })
	if !errors.Is(err, ErrTxnTooLarge) {
		t.Fatalf("err = %v, want ErrTxnTooLarge", err)
	}
	// Engine still serves small transactions.
	small := kvSchema()
	_ = small
	if err := e.Run(0, func(tx *Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestFailedInsertFreesItsSlot: an insert whose redo does not fit the log has
// already allocated its slot; the failure hands it back, so the thread's free
// list is one longer once the transaction aborts.
func TestFailedInsertFreesItsSlot(t *testing.T) {
	cfg := FalconConfig()
	cfg.Threads = 1
	cfg.Window.SlotBytes = 1024
	cfg.Window.OverflowBytes = 2048
	e, err := New(pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20}), cfg, []TableSpec{{
		Name: "big", Schema: bigSchema(), Capacity: 64, KeyCol: 0, IndexKind: index.Hash,
	}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("big")
	before, _ := tbl.Heap().FreeStats()
	tx := e.Begin(0)
	if err := tx.Insert(tbl, 1, make([]byte, tbl.Schema().TupleSize())); !errors.Is(err, ErrTxnTooLarge) {
		t.Fatalf("err = %v, want ErrTxnTooLarge", err)
	}
	tx.Abort()
	if after, _ := tbl.Heap().FreeStats(); after[0] != before[0]+1 {
		t.Fatalf("free list %d -> %d slots: the failed insert's slot leaked", before[0], after[0])
	}
}

// TestVersionGCRespectsSnapshots: an open snapshot pins old versions; once
// it commits, worker-driven GC reclaims them (§5.4).
func TestVersionGCRespectsSnapshots(t *testing.T) {
	cfg := FalconConfig()
	cfg.CC = cc.MVOCC
	cfg.Threads = 2
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 128 << 20})
	e, err := New(sys, cfg, kvSpec(index.Hash, 1000))
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("kv")
	s := tbl.Schema()
	if err := e.Run(0, func(tx *Txn) error {
		return tx.Insert(tbl, 1, encodeKV(s, 1, 0))
	}); err != nil {
		t.Fatal(err)
	}

	ro := e.BeginRO(1) // pins the horizon
	buf := make([]byte, s.TupleSize())
	if err := ro.Read(tbl, 1, buf); err != nil {
		t.Fatal(err)
	}
	base := s.GetInt64(buf, 1)

	for i := 0; i < 200; i++ {
		if err := e.Run(0, func(tx *Txn) error {
			var b [8]byte
			layoutPutI64(b[:], int64(i+1))
			return tx.UpdateField(tbl, 1, 1, b[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The pinned snapshot still reads its original value.
	if err := ro.Read(tbl, 1, buf); err != nil {
		t.Fatal(err)
	}
	if got := s.GetInt64(buf, 1); got != base {
		t.Fatalf("snapshot drifted: %d != %d", got, base)
	}
	slot, _ := tbl.primary.Get(e.Clock(0), 1)
	pinned := tbl.versions.ChainLen(slot)
	if pinned == 0 {
		t.Fatal("no versions retained for the open snapshot")
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	// More updates trigger worker GC with the horizon released.
	for i := 0; i < 100; i++ {
		if err := e.Run(0, func(tx *Txn) error {
			var b [8]byte
			layoutPutI64(b[:], int64(i))
			return tx.UpdateField(tbl, 1, 1, b[:])
		}); err != nil {
			t.Fatal(err)
		}
	}
	if after := tbl.versions.ChainLen(slot); after >= pinned {
		t.Fatalf("GC did not shrink the chain after snapshot release: %d -> %d", pinned, after)
	}
}
