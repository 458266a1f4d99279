package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/pmem"
)

func kvSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "v", Kind: layout.Int64},
		layout.Column{Name: "pad", Kind: layout.Bytes, Size: 48},
	)
}

func kvSpec(kind index.Kind, capacity uint64) []TableSpec {
	return []TableSpec{{
		Name: "kv", Schema: kvSchema(), Capacity: capacity,
		KeyCol: 0, IndexKind: kind,
	}}
}

func newKVEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	cfg.Threads = 4
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
	e, err := New(sys, cfg, kvSpec(index.Hash, 20000))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func encodeKV(s *layout.Schema, k uint64, v int64) []byte {
	buf := make([]byte, s.TupleSize())
	s.PutUint64(buf, 0, k)
	s.PutInt64(buf, 1, v)
	return buf
}

// allEngineConfigs enumerates every preset for matrix tests.
func allEngineConfigs() []Config {
	return []Config{
		FalconConfig(), FalconNoFlushConfig(), FalconAllFlushConfig(), FalconDRAMIndexConfig(),
		InpConfig(), InpNoFlushConfig(), InpSmallLogWindowConfig(), InpHotTupleTrackingConfig(),
		OutpConfig(), ZenSConfig(), ZenSNoFlushConfig(),
	}
}

func TestEngineBasicCRUDAllVariants(t *testing.T) {
	for _, cfg := range allEngineConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			e := newKVEngine(t, cfg)
			tbl := e.Table("kv")
			s := tbl.Schema()

			err := e.Run(0, func(tx *Txn) error {
				return tx.Insert(tbl, 7, encodeKV(s, 7, 100))
			})
			if err != nil {
				t.Fatal(err)
			}

			buf := make([]byte, s.TupleSize())
			if err := e.RunRO(0, func(tx *Txn) error {
				return tx.Read(tbl, 7, buf)
			}); err != nil {
				t.Fatal(err)
			}
			if s.GetInt64(buf, 1) != 100 {
				t.Fatalf("read v = %d, want 100", s.GetInt64(buf, 1))
			}

			// Field update.
			var val [8]byte
			s.PutInt64(val[:], 0, 0) // reuse buffer trick: encode -1 below
			if err := e.Run(1, func(tx *Txn) error {
				var v [8]byte
				for i := range v {
					v[i] = 0
				}
				v[0] = 200
				return tx.UpdateField(tbl, 7, 1, v[:])
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.RunRO(2, func(tx *Txn) error {
				return tx.Read(tbl, 7, buf)
			}); err != nil {
				t.Fatal(err)
			}
			if s.GetInt64(buf, 1) != 200 {
				t.Fatalf("after update v = %d, want 200", s.GetInt64(buf, 1))
			}

			// Delete.
			if err := e.Run(3, func(tx *Txn) error {
				return tx.Delete(tbl, 7)
			}); err != nil {
				t.Fatal(err)
			}
			err = e.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, 7, buf) })
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("read after delete err = %v, want ErrNotFound", err)
			}

			// Reinsert reuses the key.
			if err := e.Run(0, func(tx *Txn) error {
				return tx.Insert(tbl, 7, encodeKV(s, 7, 300))
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.RunRO(1, func(tx *Txn) error { return tx.Read(tbl, 7, buf) }); err != nil {
				t.Fatal(err)
			}
			if s.GetInt64(buf, 1) != 300 {
				t.Fatalf("after reinsert v = %d, want 300", s.GetInt64(buf, 1))
			}
			_ = val
		})
	}
}

func TestEngineAllCCAlgorithms(t *testing.T) {
	for _, algo := range cc.All {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			cfg := FalconConfig()
			cfg.CC = algo
			e := newKVEngine(t, cfg)
			tbl := e.Table("kv")
			s := tbl.Schema()
			for k := uint64(0); k < 50; k++ {
				if err := e.Run(0, func(tx *Txn) error {
					return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Read-modify-write increments.
			for i := 0; i < 100; i++ {
				k := uint64(i % 50)
				if err := e.Run(i%4, func(tx *Txn) error {
					buf := make([]byte, s.TupleSize())
					if err := tx.Read(tbl, k, buf); err != nil {
						return err
					}
					var v [8]byte
					s2 := s.GetInt64(buf, 1) + 1
					layoutPutI64(v[:], s2)
					return tx.UpdateField(tbl, k, 1, v[:])
				}); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, s.TupleSize())
			for k := uint64(0); k < 50; k++ {
				if err := e.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, k, buf) }); err != nil {
					t.Fatal(err)
				}
				if got := s.GetInt64(buf, 1); got != int64(k)+2 {
					t.Fatalf("key %d = %d, want %d", k, got, k+2)
				}
			}
		})
	}
}

func layoutPutI64(b []byte, v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func TestConcurrentCounterInvariant(t *testing.T) {
	// N workers increment disjoint-and-shared counters; the final sum must
	// equal the number of committed increments regardless of CC algorithm.
	for _, algo := range cc.All {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			cfg := FalconConfig()
			cfg.CC = algo
			e := newKVEngine(t, cfg)
			tbl := e.Table("kv")
			s := tbl.Schema()
			const keys = 8
			for k := uint64(0); k < keys; k++ {
				if err := e.Run(0, func(tx *Txn) error {
					return tx.Insert(tbl, k, encodeKV(s, k, 0))
				}); err != nil {
					t.Fatal(err)
				}
			}
			const workers, per = 4, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						k := uint64((w + i) % keys)
						err := e.Run(w, func(tx *Txn) error {
							buf := make([]byte, s.TupleSize())
							if err := tx.Read(tbl, k, buf); err != nil {
								return err
							}
							var v [8]byte
							layoutPutI64(v[:], s.GetInt64(buf, 1)+1)
							return tx.UpdateField(tbl, k, 1, v[:])
						})
						if err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			var sum int64
			buf := make([]byte, s.TupleSize())
			for k := uint64(0); k < keys; k++ {
				if err := e.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, k, buf) }); err != nil {
					t.Fatal(err)
				}
				sum += s.GetInt64(buf, 1)
			}
			if sum != workers*per {
				t.Fatalf("sum = %d, want %d (lost updates!)", sum, workers*per)
			}
		})
	}
}

func TestAbortRollsBack(t *testing.T) {
	for _, cfg := range []Config{FalconConfig(), OutpConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			e := newKVEngine(t, cfg)
			tbl := e.Table("kv")
			s := tbl.Schema()
			if err := e.Run(0, func(tx *Txn) error {
				return tx.Insert(tbl, 1, encodeKV(s, 1, 10))
			}); err != nil {
				t.Fatal(err)
			}
			// Explicit rollback: the update and the insert must both vanish.
			err := e.Run(0, func(tx *Txn) error {
				var v [8]byte
				layoutPutI64(v[:], 999)
				if err := tx.UpdateField(tbl, 1, 1, v[:]); err != nil {
					return err
				}
				if err := tx.Insert(tbl, 2, encodeKV(s, 2, 20)); err != nil {
					return err
				}
				return ErrRollback
			})
			if !errors.Is(err, ErrRollback) {
				t.Fatalf("err = %v", err)
			}
			buf := make([]byte, s.TupleSize())
			if err := e.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, 1, buf) }); err != nil {
				t.Fatal(err)
			}
			if s.GetInt64(buf, 1) != 10 {
				t.Fatalf("aborted update leaked: v = %d", s.GetInt64(buf, 1))
			}
			if err := e.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, 2, buf) }); !errors.Is(err, ErrNotFound) {
				t.Fatalf("aborted insert leaked: err = %v", err)
			}
		})
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	for _, cfg := range []Config{FalconConfig(), OutpConfig()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			e := newKVEngine(t, cfg)
			tbl := e.Table("kv")
			s := tbl.Schema()
			if err := e.Run(0, func(tx *Txn) error {
				return tx.Insert(tbl, 5, encodeKV(s, 5, 1))
			}); err != nil {
				t.Fatal(err)
			}
			err := e.Run(0, func(tx *Txn) error {
				var v [8]byte
				layoutPutI64(v[:], 42)
				if err := tx.UpdateField(tbl, 5, 1, v[:]); err != nil {
					return err
				}
				buf := make([]byte, s.TupleSize())
				if err := tx.Read(tbl, 5, buf); err != nil {
					return err
				}
				if got := s.GetInt64(buf, 1); got != 42 {
					return fmt.Errorf("own write invisible: v = %d", got)
				}
				// Pending insert must be visible too.
				if err := tx.Insert(tbl, 6, encodeKV(s, 6, 66)); err != nil {
					return err
				}
				if err := tx.Read(tbl, 6, buf); err != nil {
					return err
				}
				if got := s.GetInt64(buf, 1); got != 66 {
					return fmt.Errorf("own insert wrong: v = %d", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSnapshotIsolationMVCC(t *testing.T) {
	for _, algo := range []cc.Algo{cc.MV2PL, cc.MVTO, cc.MVOCC} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			cfg := FalconConfig()
			cfg.CC = algo
			e := newKVEngine(t, cfg)
			tbl := e.Table("kv")
			s := tbl.Schema()
			if err := e.Run(0, func(tx *Txn) error {
				return tx.Insert(tbl, 1, encodeKV(s, 1, 100))
			}); err != nil {
				t.Fatal(err)
			}
			// Open a snapshot, then overwrite the tuple from another worker.
			ro := e.BeginRO(1)
			if err := e.Run(2, func(tx *Txn) error {
				var v [8]byte
				layoutPutI64(v[:], 200)
				return tx.UpdateField(tbl, 1, 1, v[:])
			}); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, s.TupleSize())
			if err := ro.Read(tbl, 1, buf); err != nil {
				t.Fatal(err)
			}
			if got := s.GetInt64(buf, 1); got != 100 {
				t.Fatalf("snapshot read %d, want pre-update 100", got)
			}
			if err := ro.Commit(); err != nil {
				t.Fatal(err)
			}
			// A fresh snapshot sees the new value.
			if err := e.RunRO(1, func(tx *Txn) error { return tx.Read(tbl, 1, buf) }); err != nil {
				t.Fatal(err)
			}
			if got := s.GetInt64(buf, 1); got != 200 {
				t.Fatalf("new snapshot read %d, want 200", got)
			}
		})
	}
}

func TestScanOrderedAndLimited(t *testing.T) {
	cfg := FalconConfig()
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
	cfg.Threads = 2
	e, err := New(sys, cfg, kvSpec(index.BTree, 10000))
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("kv")
	s := tbl.Schema()
	for k := uint64(0); k < 100; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k*2, encodeKV(s, k*2, int64(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	var keys []uint64
	err = e.Run(1, func(tx *Txn) error {
		keys = keys[:0]
		_, err := tx.Scan(tbl, 50, 10, func(key uint64, payload []byte) bool {
			keys = append(keys, key)
			return true
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 || keys[0] != 50 || keys[9] != 68 {
		t.Fatalf("scan keys = %v", keys)
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	tbl := e.Table("kv")
	s := tbl.Schema()
	if err := e.Run(0, func(tx *Txn) error {
		return tx.Insert(tbl, 9, encodeKV(s, 9, 1))
	}); err != nil {
		t.Fatal(err)
	}
	err := e.Run(1, func(tx *Txn) error {
		return tx.Insert(tbl, 9, encodeKV(s, 9, 2))
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestCommitsAndAbortsCounted(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	tbl := e.Table("kv")
	s := tbl.Schema()
	for i := 0; i < 10; i++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, uint64(i), encodeKV(s, uint64(i), 0))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Commits() != 10 {
		t.Fatalf("commits = %d", e.Commits())
	}
	e.Run(0, func(tx *Txn) error { return ErrRollback })
	if e.Aborts() == 0 {
		t.Fatal("aborts not counted")
	}
}

// TestInPlaceTupleCacheRefused: an in-place commit overwrites tuples without
// refreshing or invalidating their cached images, so New and Recover refuse an
// in-place engine with a tuple cache rather than serve stale reads.
func TestInPlaceTupleCacheRefused(t *testing.T) {
	cfg := FalconConfig()
	cfg.Threads, cfg.TupleCacheBytes = 4, 1<<20
	if _, err := New(pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20}), cfg, kvSpec(index.Hash, 100)); err == nil || !strings.Contains(err.Error(), "tuple cache") {
		t.Errorf("New: %v, want the tuple cache refused", err)
	}
	if _, _, err := Recover(newKVEngine(t, FalconConfig()).System().Crash(), cfg); err == nil || !strings.Contains(err.Error(), "tuple cache") {
		t.Errorf("Recover: %v, want the tuple cache refused", err)
	}
}

// TestPerWorkerRowsAreWholeLines: a worker's scratch and its counter row per
// table fill whole 64 B lines, so no two workers' per-operation writes share
// one. A field added to either struct must take its bytes from the padding.
func TestPerWorkerRowsAreWholeLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"workerScratch":    unsafe.Sizeof(workerScratch{}),
		"paddedTableStats": unsafe.Sizeof(paddedTableStats{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d B, not whole lines", name, size)
		}
	}
}
