package core

import (
	"errors"
	"maps"
	"testing"

	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// TestADRLosesUnflushedCommits is the paper's central counterfactual: the
// small-log-window design is only correct under persistent cache. On an
// ADR machine (volatile cache) with all flushes removed, committed
// transactions whose log and data never left the cache are lost at a crash.
// This is why pre-eADR engines (Inp) must flush their logs — and the test
// confirms Inp survives the same crash.
func TestADRLosesUnflushedCommits(t *testing.T) {
	run := func(cfg Config) (lost int, err error) {
		cfg.Threads = 2
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 128 << 20, Mode: pmem.ADR})
		e, err := New(sys, cfg, kvSpec(index.Hash, 4000))
		if err != nil {
			return 0, err
		}
		tbl := e.Table("kv")
		s := tbl.Schema()
		const n = 50
		for k := uint64(0); k < n; k++ {
			if err := e.Run(int(k)%2, func(tx *Txn) error {
				return tx.Insert(tbl, k, encodeKV(s, k, int64(k)+1))
			}); err != nil {
				return 0, err
			}
		}
		e2, _, err := Recover(e.System().Crash(), cfg)
		if err != nil {
			return 0, err
		}
		tbl2 := e2.Table("kv")
		buf := make([]byte, s.TupleSize())
		for k := uint64(0); k < n; k++ {
			err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(tbl2, k, buf) })
			if errors.Is(err, ErrNotFound) || (err == nil && s.GetInt64(buf, 1) != int64(k)+1) {
				lost++
			} else if err != nil && !errors.Is(err, ErrNotFound) {
				return 0, err
			}
		}
		return lost, nil
	}

	// Falcon's unflushed small log window on volatile-cache hardware: data
	// loss expected.
	falconLost, err := run(FalconNoFlushConfig())
	if err != nil {
		t.Fatalf("falcon-on-ADR run: %v", err)
	}
	if falconLost == 0 {
		t.Fatal("unflushed Falcon survived an ADR crash — the simulator is not modelling volatile cache")
	}

	// Inp flushes its log records and its data; everything must survive.
	inpLost, err := run(InpConfig())
	if err != nil {
		t.Fatalf("inp-on-ADR run: %v", err)
	}
	if inpLost != 0 {
		t.Fatalf("Inp (flushed log) lost %d committed transactions under ADR", inpLost)
	}
}

// TestADRRebuildsTheNVMIndex crashes an NVM-index engine, a B+-tree primary
// and a secondary index, in the middle of a stream of inserts, updates and
// deletes. Under ADR the crash dropped whichever index lines were cached, so
// recovery builds both indexes empty and fills them from a heap scan: every
// live tuple is reachable by both its keys, and a whole secondary scan
// returns exactly the live tuples. Under eADR the crash kept every store,
// and recovery reattaches the indexes without scanning a tuple.
func TestADRRebuildsTheNVMIndex(t *testing.T) {
	schema := layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "sec", Kind: layout.Uint64},
		layout.Column{Name: "v", Kind: layout.Int64},
	)
	row := func(k uint64, v int64) []byte {
		buf := make([]byte, schema.TupleSize())
		schema.PutUint64(buf, 0, k)
		schema.PutUint64(buf, 1, 1000+k)
		schema.PutInt64(buf, 2, v)
		return buf
	}
	cfg := InpConfig()
	cfg.Threads = 2
	specs := []TableSpec{{Name: "kv", Schema: schema, Capacity: 512, KeyCol: 0, SecondaryCol: 1, IndexKind: index.BTree}}
	for _, mode := range []pmem.Mode{pmem.ADR, pmem.EADR} {
		t.Run(map[pmem.Mode]string{pmem.EADR: "eadr", pmem.ADR: "adr"}[mode], func(t *testing.T) {
			// run inserts keys 1..300, updating every second key and deleting
			// every third as it goes, and stops at the crash plan trips.
			run := func(plan *pmem.FaultPlan) (e *Engine) {
				e, err := New(pmem.NewSystem(pmem.Config{DeviceBytes: 32 << 20, Mode: mode}), cfg, specs)
				if err != nil {
					t.Fatal(err)
				}
				kv := e.Table("kv")
				e.System().SetFaults(plan)
				defer func() {
					if r := recover(); r != nil && !pmem.IsInjectedCrash(r) {
						panic(r)
					}
				}()
				for k := uint64(1); k <= 300; k++ {
					w := int(k) % 2
					if err := e.Run(w, func(tx *Txn) error { return tx.Insert(kv, k, row(k, 1)) }); err != nil {
						t.Fatal(err)
					}
					if k%2 == 0 {
						if err := e.Run(w, func(tx *Txn) error { return tx.UpdateField(kv, k-1, 2, i64le(2)) }); err != nil {
							t.Fatal(err)
						}
					}
					if k%3 == 0 {
						if err := e.Run(w, func(tx *Txn) error { return tx.Delete(kv, k-2) }); err != nil {
							t.Fatal(err)
						}
					}
				}
				return e
			}
			count := &pmem.FaultPlan{}
			run(count)
			e := run(&pmem.FaultPlan{Event: pmem.FaultStore, N: count.Counts()[pmem.FaultStore] / 2})
			e, rep, err := Recover(e.System().Crash(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if mode == pmem.EADR {
				if rep.TuplesScanned != 0 {
					t.Fatalf("eADR recovery scanned %d tuples: the NVM indexes were not reattached", rep.TuplesScanned)
				}
				return
			}
			if rep.TuplesScanned == 0 {
				t.Fatal("ADR recovery scanned no tuple: the NVM indexes were reattached")
			}
			kv := e.Table("kv")
			clk := sim.NewClock()
			live := map[uint64]uint64{}
			kv.Heap().ScanAll(clk, func(slot, ts uint64, flags uint8, payload []byte) {
				if flags&(heap.FlagDeleted|heap.FlagInvalidated) != 0 {
					return
				}
				k, sec := schema.GetUint64(payload, 0), schema.GetUint64(payload, 1)
				if s, ok := kv.primary.Get(clk, k); !ok || s != slot {
					t.Errorf("key %d in slot %d: primary gives %d, %v", k, slot, s, ok)
				}
				if s, ok := kv.secondary.Get(clk, sec); !ok || s != slot {
					t.Errorf("secondary key %d in slot %d: secondary gives %d, %v", sec, slot, s, ok)
				}
				live[sec] = slot
			})
			if len(live) == 0 {
				t.Fatal("no live tuple survived the crash: the test covers nothing")
			}
			scanned := map[uint64]uint64{}
			if err := kv.secondary.Scan(clk, 0, func(key, slot uint64) bool { scanned[key] = slot; return true }); err != nil {
				t.Fatalf("secondary scan: %v", err)
			}
			if !maps.Equal(scanned, live) {
				t.Fatalf("secondary scan returned %d entries, the heap holds %d live tuples:\n%v\n%v", len(scanned), len(live), scanned, live)
			}
		})
	}
}

// TestADRRebuildRepairsTheCursors: a heap's allocation cursors are written
// through the cache and never written back, so an ADR crash can leave them
// behind tuples whose insert records have left the log window. The index
// rebuild scans every slot and moves the cursors past what it finds: Falcon
// with every tuple written back keeps all its rows, and no insert after
// recovery is handed a live tuple's slot.
func TestADRRebuildRepairsTheCursors(t *testing.T) {
	for _, cfg := range []Config{FalconAllFlushConfig(), FalconDRAMIndexConfig()} {
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.Threads = 1
			e, err := New(pmem.NewSystem(pmem.Config{DeviceBytes: 32 << 20, Mode: pmem.ADR}), cfg, kvSpec(index.Hash, 1000))
			if err != nil {
				t.Fatal(err)
			}
			s := e.Table("kv").Schema()
			insert := func(k uint64) error {
				return e.Run(0, func(tx *Txn) error { return tx.Insert(e.Table("kv"), k, encodeKV(s, k, int64(k))) })
			}
			for k := uint64(1); k <= 300; k++ {
				if err := insert(k); err != nil {
					t.Fatal(err)
				}
			}
			if e, _, err = Recover(e.System().Crash(), cfg); err != nil {
				t.Fatal(err)
			}
			rows := func() (n int) {
				buf := make([]byte, s.TupleSize())
				for k := uint64(1); k <= 300; k++ {
					err := e.RunRO(0, func(tx *Txn) error { return tx.Read(e.Table("kv"), k, buf) })
					if err == nil && s.GetUint64(buf, 0) == k && s.GetInt64(buf, 1) == int64(k) {
						n++
					}
				}
				return n
			}
			before := rows()
			if before == 0 {
				t.Fatal("no row survived the crash: the test covers nothing")
			}
			if cfg.Flush == FlushAll && before != 300 {
				t.Fatalf("%d of 300 rows written back before the crash survived it", before)
			}
			for k := uint64(1001); k <= 1100; k++ {
				if err := insert(k); err != nil {
					t.Fatal(err)
				}
			}
			if after := rows(); after != before {
				t.Fatalf("100 inserts after recovery left %d of the %d rows it recovered", after, before)
			}
		})
	}
}
