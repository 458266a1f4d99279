package core

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/pmem"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// runAndCrash creates an engine, applies ops, optionally leaves an open
// uncommitted transaction, crashes, and recovers.
func recoverAfter(t *testing.T, cfg Config, prepare func(e *Engine)) (*Engine, *RecoveryReport) {
	t.Helper()
	cfg.Threads = 4
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
	e, err := New(sys, cfg, kvSpec(index.Hash, 20000))
	if err != nil {
		t.Fatal(err)
	}
	prepare(e)
	sys2 := e.System().Crash()
	e2, rep, err := Recover(sys2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e2, rep
}

func TestRecoveryCommittedSurvivesAllVariants(t *testing.T) {
	for _, cfg := range allEngineConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			want := map[uint64]int64{}
			e2, _ := recoverAfter(t, cfg, func(e *Engine) {
				tbl := e.Table("kv")
				s := tbl.Schema()
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < 300; i++ {
					k := uint64(rng.Intn(100))
					w := rng.Intn(4)
					switch {
					case w == 0 && want[k] != 0: // delete
						if err := e.Run(i%4, func(tx *Txn) error { return tx.Delete(tbl, k) }); err != nil {
							t.Fatal(err)
						}
						delete(want, k)
					case want[k] == 0: // insert
						v := int64(i + 1)
						if err := e.Run(i%4, func(tx *Txn) error {
							return tx.Insert(tbl, k, encodeKV(s, k, v))
						}); err != nil {
							t.Fatal(err)
						}
						want[k] = v
					default: // update
						v := int64(i + 1000)
						if err := e.Run(i%4, func(tx *Txn) error {
							var b [8]byte
							layoutPutI64(b[:], v)
							return tx.UpdateField(tbl, k, 1, b[:])
						}); err != nil {
							t.Fatal(err)
						}
						want[k] = v
					}
				}
			})
			tbl := e2.Table("kv")
			s := tbl.Schema()
			buf := make([]byte, s.TupleSize())
			for k := uint64(0); k < 100; k++ {
				err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, k, buf) })
				if v, live := want[k]; live {
					if err != nil {
						t.Fatalf("key %d lost after recovery: %v", k, err)
					}
					if got := s.GetInt64(buf, 1); got != v {
						t.Fatalf("key %d = %d after recovery, want %d", k, got, v)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("deleted/absent key %d resurfaced: err=%v", k, err)
				}
			}
		})
	}
}

func TestRecoveryUncommittedInvisible(t *testing.T) {
	for _, cfg := range []Config{FalconConfig(), FalconDRAMIndexConfig(), InpConfig(), OutpConfig(), ZenSConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			e2, _ := recoverAfter(t, cfg, func(e *Engine) {
				tbl := e.Table("kv")
				s := tbl.Schema()
				if err := e.Run(0, func(tx *Txn) error {
					return tx.Insert(tbl, 1, encodeKV(s, 1, 10))
				}); err != nil {
					t.Fatal(err)
				}
				// An in-flight transaction at crash time: updates buffered,
				// never committed.
				tx := e.Begin(1)
				var b [8]byte
				layoutPutI64(b[:], 999)
				if err := tx.UpdateField(tbl, 1, 1, b[:]); err != nil {
					t.Fatal(err)
				}
				if err := tx.Insert(tbl, 2, encodeKV(s, 2, 20)); err != nil {
					t.Fatal(err)
				}
				// crash now, tx never commits
			})
			tbl := e2.Table("kv")
			s := tbl.Schema()
			buf := make([]byte, s.TupleSize())
			if err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, 1, buf) }); err != nil {
				t.Fatal(err)
			}
			if got := s.GetInt64(buf, 1); got != 10 {
				t.Fatalf("uncommitted update leaked through crash: v = %d", got)
			}
			if err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, 2, buf) }); !errors.Is(err, ErrNotFound) {
				t.Fatalf("uncommitted insert visible after recovery: %v", err)
			}
		})
	}
}

func TestRecoveryMidCommitTornApply(t *testing.T) {
	// Crash immediately after the log's durable commit point but before the
	// in-place apply: the record is COMMITTED, tuples untouched. Recovery
	// must replay it. We emulate this by writing the log record manually
	// through a transaction whose apply we skip — easiest faithful stand-in:
	// commit normally, then verify replay idempotence by crashing right
	// after commit (the cache may hold both log and data; both flushed).
	cfg := FalconConfig()
	e2, rep := recoverAfter(t, cfg, func(e *Engine) {
		tbl := e.Table("kv")
		s := tbl.Schema()
		for k := uint64(0); k < 10; k++ {
			if err := e.Run(int(k)%4, func(tx *Txn) error {
				return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if rep.RecordsReplayed == 0 {
		t.Fatal("no records replayed despite committed windows")
	}
	tbl := e2.Table("kv")
	s := tbl.Schema()
	buf := make([]byte, s.TupleSize())
	for k := uint64(0); k < 10; k++ {
		if err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, k, buf) }); err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if got := s.GetInt64(buf, 1); got != int64(k) {
			t.Fatalf("key %d = %d", k, got)
		}
	}
}

func TestRecoveryReplayGuardNoClobber(t *testing.T) {
	// Key scenario from the design: an old COMMITTED record must not
	// overwrite the effect of a newer transaction whose record was already
	// reused. Window has 3 slots; run 1 update from worker 0 (its record
	// stays), then many updates of the same key from worker 1 (its window
	// wraps). Replay must keep the newest value.
	cfg := FalconConfig()
	var wantFinal int64
	e2, _ := recoverAfter(t, cfg, func(e *Engine) {
		tbl := e.Table("kv")
		s := tbl.Schema()
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, 1, encodeKV(s, 1, 0))
		}); err != nil {
			t.Fatal(err)
		}
		// Worker 0 writes value 111; its record will stay in its window.
		if err := e.Run(0, func(tx *Txn) error {
			var b [8]byte
			layoutPutI64(b[:], 111)
			return tx.UpdateField(tbl, 1, 1, b[:])
		}); err != nil {
			t.Fatal(err)
		}
		// Worker 1 overwrites repeatedly; only its last records survive.
		for i := 0; i < 10; i++ {
			wantFinal = int64(1000 + i)
			if err := e.Run(1, func(tx *Txn) error {
				var b [8]byte
				layoutPutI64(b[:], wantFinal)
				return tx.UpdateField(tbl, 1, 1, b[:])
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
	tbl := e2.Table("kv")
	s := tbl.Schema()
	buf := make([]byte, s.TupleSize())
	if err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, 1, buf) }); err != nil {
		t.Fatal(err)
	}
	if got := s.GetInt64(buf, 1); got != wantFinal {
		t.Fatalf("recovered value %d, want %d (old log record clobbered newer state)", got, wantFinal)
	}
}

func TestRecoveryReportShapes(t *testing.T) {
	// Falcon: no heap scan, replay only. ZenS: heap scan proportional to
	// data; Falcon recovery virtual time must be much smaller.
	load := func(e *Engine) {
		tbl := e.Table("kv")
		s := tbl.Schema()
		for k := uint64(0); k < 2000; k++ {
			if err := e.Run(int(k)%4, func(tx *Txn) error {
				return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, falconRep := recoverAfter(t, FalconConfig(), load)
	_, zensRep := recoverAfter(t, ZenSConfig(), load)

	if falconRep.TuplesScanned != 0 {
		t.Errorf("Falcon recovery scanned %d tuples; should scan none", falconRep.TuplesScanned)
	}
	if zensRep.TuplesScanned < 2000 {
		t.Errorf("ZenS recovery scanned %d tuples; must scan the heap", zensRep.TuplesScanned)
	}
	if falconRep.TotalNanos*10 > zensRep.TotalNanos {
		t.Errorf("Falcon recovery (%d ns) not ≫ faster than ZenS (%d ns)",
			falconRep.TotalNanos, zensRep.TotalNanos)
	}
}

func TestRecoveryTIDClockAdvances(t *testing.T) {
	cfg := FalconConfig()
	var lastTID uint64
	e2, _ := recoverAfter(t, cfg, func(e *Engine) {
		tbl := e.Table("kv")
		s := tbl.Schema()
		for i := 0; i < 20; i++ {
			if err := e.Run(0, func(tx *Txn) error {
				lastTID = tx.TID()
				return tx.Insert(tbl, uint64(i), encodeKV(s, uint64(i), 1))
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
	tx := e2.Begin(0)
	defer tx.Abort()
	if tx.TID() <= lastTID {
		t.Fatalf("post-recovery TID %x not beyond pre-crash %x", tx.TID(), lastTID)
	}
}

func TestRecoveryDoubleCrash(t *testing.T) {
	// Crash, recover, write more, crash again, recover again.
	cfg := FalconConfig()
	cfg.Threads = 4
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
	e, err := New(sys, cfg, kvSpec(index.Hash, 20000))
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(0); k < 10; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys = e.System().Crash()
	e, _, err = Recover(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl = e.Table("kv")
	for k := uint64(10); k < 20; k++ {
		if err := e.Run(1, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys = e.System().Crash()
	e, _, err = Recover(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl = e.Table("kv")
	buf := make([]byte, s.TupleSize())
	for k := uint64(0); k < 20; k++ {
		if err := e.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, k, buf) }); err != nil {
			t.Fatalf("key %d after double crash: %v", k, err)
		}
		if got := s.GetInt64(buf, 1); got != int64(k) {
			t.Fatalf("key %d = %d", k, got)
		}
	}
}

// TestCrashInsideACommitTwice crashes at every store of one transaction that
// deletes row 2 and inserts row 9 (a table with a secondary index), recovers,
// crashes again before anything else commits and recovers again. Both
// recoveries must agree with the durable commit point — the record in the log
// window, or the writer's marker — in the rows and in both indexes: committed,
// row 2 is gone from the heap and from every index (so its key can be inserted
// again) and row 9 is there; not committed, the reverse. Three bugs failed it:
// in-place replay left the index entries of a delete whose retire had landed;
// an out-of-place delete record stored the TID and the flag apart, and torn
// between them read as an uncommitted new version that recovery rolled back;
// and rolling back an uncommitted delete left the deleter's TID on the
// version, so the second recovery rolled it back.
func TestCrashInsideACommitTwice(t *testing.T) {
	schema := layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "sec", Kind: layout.Uint64},
		layout.Column{Name: "pad", Kind: layout.Bytes, Size: 112},
	)
	row := func(k uint64) []byte {
		buf := make([]byte, schema.TupleSize())
		schema.PutUint64(buf, 0, k)
		schema.PutUint64(buf, 1, 100+k)
		schema.PutBytes(buf, 2, bytes.Repeat([]byte{byte(k)}, 112))
		return buf
	}
	type cell struct {
		cfg  Config
		mode pmem.Mode
	}
	for _, c := range []cell{{FalconConfig(), pmem.EADR}, {OutpConfig(), pmem.EADR}, {ZenSConfig(), pmem.EADR},
		{InpConfig(), pmem.ADR}, {OutpConfig(), pmem.ADR}} {
		cfg := c.cfg
		cfg.Threads, cfg.DRAMBytes, cfg.TupleCacheBytes = 2, 4<<20, min(cfg.TupleCacheBytes, 1<<20)
		t.Run(cfg.Name+"/"+map[pmem.Mode]string{pmem.EADR: "eadr", pmem.ADR: "adr"}[c.mode], func(t *testing.T) {
			// run builds and loads an engine, then runs the transaction under
			// plan and returns the engine and the transaction's TID.
			run := func(plan *pmem.FaultPlan) (e *Engine, tid uint64) {
				sys := pmem.NewSystem(pmem.Config{DeviceBytes: 16 << 20, Mode: c.mode})
				e, err := New(sys, cfg, []TableSpec{{Name: "kv", Schema: schema, Capacity: 64, KeyCol: 0, SecondaryCol: 1, IndexKind: index.Hash}})
				if err != nil {
					t.Fatal(err)
				}
				kv := e.Table("kv")
				for k := uint64(1); k <= 4; k++ {
					if err := e.Run(int(k)%2, func(tx *Txn) error { return tx.Insert(kv, k, row(k)) }); err != nil {
						t.Fatal(err)
					}
				}
				e.Sync(sim.NewClock())
				sys.SetFaults(plan)
				defer func() {
					if r := recover(); r != nil && !pmem.IsInjectedCrash(r) {
						panic(r)
					}
				}()
				if err := e.Run(1, func(tx *Txn) error {
					tid = tx.TID()
					if err := tx.Delete(kv, 2); err != nil {
						return err
					}
					return tx.Insert(kv, 9, row(9))
				}); err != nil {
					t.Fatal(err)
				}
				return e, tid
			}
			// committed reads the crashed image's commit point for worker 1.
			committed := func(e *Engine, sys *pmem.System, tid uint64) bool {
				clk := sim.NewClock()
				if cfg.Update == OutOfPlace {
					return sys.Space.ReadU64(clk, e.markerBase+64) >= tid
				}
				winBytes := wal.BytesNeeded(e.cfg.Window)
				recs, _ := wal.ReadRecords(sys.Space, clk, e.windowBase+winBytes, e.cfg.Window)
				return slices.ContainsFunc(recs, func(r wal.Record) bool { return r.TID == tid })
			}
			check := func(e *Engine, round string, n uint64, done bool) {
				t.Helper()
				kv := e.Table("kv")
				clk := sim.NewClock()
				buf := make([]byte, schema.TupleSize())
				for k := uint64(1); k <= 9; k++ {
					want := k <= 4 && (k != 2 || !done) || k == 9 && done
					err := e.RunRO(0, func(tx *Txn) error { return tx.Read(kv, k, buf) })
					switch {
					case want && (err != nil || !bytes.Equal(buf, row(k))):
						t.Fatalf("store %d, %s recovery (committed %v): row %d lost: %v", n, round, done, k, err)
					case !want && !errors.Is(err, ErrNotFound):
						t.Fatalf("store %d, %s recovery (committed %v): row %d resurfaced: %v", n, round, done, k, err)
					}
					_, pri := kv.primary.Get(clk, k)
					_, sec := kv.secondary.Get(clk, 100+k)
					if pri != want || sec != want {
						t.Fatalf("store %d, %s recovery (committed %v): row %d indexed %v/%v, want %v", n, round, done, k, pri, sec, want)
					}
				}
			}
			count := &pmem.FaultPlan{}
			run(count)
			stores := count.Counts()[pmem.FaultStore]
			var sawCommitted, sawNot int
			for n := uint64(1); n <= stores; n++ {
				e, tid := run(&pmem.FaultPlan{Event: pmem.FaultStore, N: n})
				sys := e.System().Crash()
				done := committed(e, sys, tid)
				e2, _, err := Recover(sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(e2, "first", n, done)
				e3, _, err := Recover(e2.System().Crash(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(e3, "second", n, done)
				kv := e3.Table("kv")
				if err := e3.Run(0, func(tx *Txn) error { return tx.Insert(kv, 2, row(2)) }); done != (err == nil) {
					t.Fatalf("store %d: re-insert of row 2 after the second recovery: %v (committed %v)", n, err, done)
				}
				if done {
					sawCommitted++
				} else {
					sawNot++
				}
			}
			if sawCommitted == 0 || sawNot == 0 {
				t.Fatalf("%d crash points: %d after the commit point, %d before", stores, sawCommitted, sawNot)
			}
		})
	}
}

func TestBankTransferInvariantAcrossCrash(t *testing.T) {
	// The classic consistency check: concurrent transfers preserve the
	// total; a crash at an arbitrary quiescent point must too.
	for _, cfg := range []Config{FalconConfig(), OutpConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.Threads = 4
			sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
			e, err := New(sys, cfg, kvSpec(index.Hash, 20000))
			if err != nil {
				t.Fatal(err)
			}
			tbl := e.Table("kv")
			s := tbl.Schema()
			const accounts = 20
			const initial = 1000
			for k := uint64(0); k < accounts; k++ {
				if err := e.Run(0, func(tx *Txn) error {
					return tx.Insert(tbl, k, encodeKV(s, k, initial))
				}); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 500; i++ {
				from := uint64(rng.Intn(accounts))
				to := uint64(rng.Intn(accounts))
				if from == to {
					continue
				}
				amount := int64(rng.Intn(50))
				err := e.Run(i%4, func(tx *Txn) error {
					buf := make([]byte, s.TupleSize())
					if err := tx.Read(tbl, from, buf); err != nil {
						return err
					}
					fb := s.GetInt64(buf, 1)
					if fb < amount {
						return ErrRollback
					}
					if err := tx.Read(tbl, to, buf); err != nil {
						return err
					}
					tb := s.GetInt64(buf, 1)
					var b [8]byte
					layoutPutI64(b[:], fb-amount)
					if err := tx.UpdateField(tbl, from, 1, b[:]); err != nil {
						return err
					}
					layoutPutI64(b[:], tb+amount)
					return tx.UpdateField(tbl, to, 1, b[:])
				})
				if err != nil && !errors.Is(err, ErrRollback) {
					t.Fatal(err)
				}
			}
			sys2 := e.System().Crash()
			e2, _, err := Recover(sys2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tbl2 := e2.Table("kv")
			var total int64
			buf := make([]byte, s.TupleSize())
			for k := uint64(0); k < accounts; k++ {
				if err := e2.RunRO(0, func(tx *Txn) error { return tx.Read(tbl2, k, buf) }); err != nil {
					t.Fatal(err)
				}
				total += s.GetInt64(buf, 1)
			}
			if total != accounts*initial {
				t.Fatalf("money not conserved across crash: total = %d, want %d", total, accounts*initial)
			}
		})
	}
}

func TestRecoverRejectsMismatchedConfig(t *testing.T) {
	cfg := FalconConfig()
	cfg.Threads = 4
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
	if _, err := New(sys, cfg, kvSpec(index.Hash, 1000)); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Update = OutOfPlace
	if _, _, err := Recover(sys.Crash(), bad); err == nil {
		t.Fatal("Recover accepted a mismatched update scheme")
	}
}

func TestRecoverOnEmptyDeviceFails(t *testing.T) {
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 16 << 20})
	if _, _, err := Recover(sys, FalconConfig()); err == nil {
		t.Fatal("Recover on an unformatted device should fail")
	}
}

// TestOutOfPlaceRecoveryIsDeterministic recovers one crashed image five times
// per out-of-place preset and demands the same report and the same media
// bytes each time. recoverOutOfPlace used to restore the index by walking a
// Go map, so the insert order — hence recovery's virtual time (ZenS, DRAM
// index) and the rebuilt index's bytes (Outp, NVM index) — changed from run
// to run on identical input.
func TestOutOfPlaceRecoveryIsDeterministic(t *testing.T) {
	for _, cfg := range []Config{ZenSConfig(), OutpConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.Threads = 1
			// ADR: the crash drops the cached index lines, so recovery has
			// entries to insert, not only to repoint.
			mem := pmem.Config{DeviceBytes: 32 << 20, Mode: pmem.ADR}
			const keys = 4000
			e, err := New(pmem.NewSystem(mem), cfg, kvSpec(index.BTree, 2*keys))
			if err != nil {
				t.Fatal(err)
			}
			tbl := e.Table("kv")
			s := tbl.Schema()
			for k := uint64(0); k < keys; k++ {
				k := k*2654435761%keys + 1 // scattered insert order
				if err := e.Run(0, func(tx *Txn) error { return tx.Insert(tbl, k, encodeKV(s, k, 1)) }); err != nil {
					t.Fatal(err)
				}
			}
			crashed := e.System().Crash()
			image := make([]byte, crashed.Dev.Size())
			crashed.Dev.RawRead(0, image)

			var firstRep RecoveryReport
			var firstCRC uint32
			after := make([]byte, len(image))
			for round := 0; round < 5; round++ {
				sys := pmem.NewSystem(mem)
				sys.Dev.RawWrite(0, image)
				e2, rep, err := Recover(sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep.Wall = 0 // host time, the one field allowed to differ
				e2.System().Crash().Dev.RawRead(0, after)
				crc := crc32.ChecksumIEEE(after)
				if round == 0 {
					firstRep, firstCRC = *rep, crc
					continue
				}
				if *rep != firstRep || crc != firstCRC {
					t.Fatalf("round %d recovered differently from round 0:\nreport %+v media CRC32 %08x\nreport %+v media CRC32 %08x",
						round, *rep, crc, firstRep, firstCRC)
				}
			}
		})
	}
}
