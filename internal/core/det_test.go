package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// groupResult captures everything a deterministic run must reproduce: the
// per-worker virtual clocks, the commit/abort counters, the abort taxonomy,
// and a digest of the durable heap image (slots, timestamps, flags, payloads).
type groupResult struct {
	clocks   [4]uint64
	commits  uint64
	aborts   uint64
	reasons  [8]uint64
	heapHash uint64
}

// groupCaches are the cache sizes the group-mode runs are made on: the
// default 2 MiB, 2 048 sets, and 3 MiB, whose 3 072 sets are not a power of
// two.
var groupCaches = []int{2 << 20, 3 << 20}

// runGroupWorkload runs a seeded mixed workload (reads, updates, inserts,
// deletes, scans) on 4 group-mode workers over a cache of cacheBytes under
// the given GOMAXPROCS and returns the result fingerprint.
func runGroupWorkload(t *testing.T, cfg Config, cacheBytes, procs int) groupResult {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const workers = 4
	cfg.Threads = workers
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20, CacheBytes: cacheBytes})
	e, err := New(sys, cfg, kvSpec(index.Hash, 20000))
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("kv")
	s := tbl.Schema()

	// Preload a contended key range in free-running mode.
	for k := uint64(0); k < 64; k++ {
		if err := e.Run(0, func(tx *Txn) error {
			return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.ResetClocks()
	e.ResetCounters()

	e.RunGroup(workers, func(w int) {
		rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
		nextIns := uint64(1000 + 500*w)
		for i := 0; i < 120; i++ {
			op := rng.Intn(10)
			key := uint64(rng.Intn(80))
			switch {
			case op < 4: // field update
				var v [8]byte
				v[0] = byte(i)
				v[1] = byte(w)
				_ = e.Run(w, func(tx *Txn) error {
					return tx.UpdateField(tbl, key, 1, v[:])
				})
			case op < 7: // point read
				buf := make([]byte, s.TupleSize())
				_ = e.RunRO(w, func(tx *Txn) error {
					return tx.Read(tbl, key, buf)
				})
			case op == 7: // insert a fresh key
				k := nextIns
				nextIns++
				_ = e.Run(w, func(tx *Txn) error {
					return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
				})
			case op == 8: // delete
				_ = e.Run(w, func(tx *Txn) error {
					return tx.Delete(tbl, key)
				})
			default: // short scan
				_ = e.RunRO(w, func(tx *Txn) error {
					_, err := tx.Scan(tbl, key, 5, func(uint64, []byte) bool { return true })
					return err
				})
			}
		}
	})

	var res groupResult
	for w := 0; w < workers; w++ {
		res.clocks[w] = e.Clock(w).Nanos()
	}
	res.commits = e.Commits()
	res.aborts = e.Aborts()
	for i, n := range e.ObsSnapshot().AbortCounts {
		if i < len(res.reasons) {
			res.reasons[i] = n
		}
	}
	h := fnv.New64a()
	var b [8]byte
	putU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	tbl.Heap().Scan(sim.NewClock(), func(slot, ts uint64, flags uint8, payload []byte) {
		putU64(slot)
		putU64(ts)
		h.Write([]byte{flags})
		h.Write(payload)
	})
	res.heapHash = h.Sum64()
	return res
}

// TestGroupModeDeterministicAcrossSchedules is the tentpole gate at engine
// level: group-mode runs must produce byte-identical virtual results whether
// the host executes the workers serially (GOMAXPROCS=1) or in parallel
// (GOMAXPROCS=4), for every engine preset and both groupCaches.
func TestGroupModeDeterministicAcrossSchedules(t *testing.T) {
	for _, cfg := range allEngineConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			for _, cache := range groupCaches {
				serial := runGroupWorkload(t, cfg, cache, 1)
				par := runGroupWorkload(t, cfg, cache, 4)
				par2 := runGroupWorkload(t, cfg, cache, 4)
				if serial != par || par != par2 {
					t.Fatalf("%d B cache: group-mode results differ across host schedules:\n serial: %+v\n par:    %+v\n par2:   %+v", cache, serial, par, par2)
				}
				if serial.commits == 0 {
					t.Fatalf("%d B cache: workload committed nothing", cache)
				}
			}
		})
	}
}

// TestGroupModeDeterministicAllCC repeats the schedule-independence check for
// every concurrency-control algorithm (their conflict paths differ), on both
// groupCaches.
func TestGroupModeDeterministicAllCC(t *testing.T) {
	anyAborts := false
	for _, algo := range cc.All {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			cfg := FalconConfig()
			cfg.CC = algo
			for _, cache := range groupCaches {
				serial := runGroupWorkload(t, cfg, cache, 1)
				par := runGroupWorkload(t, cfg, cache, 4)
				if serial != par {
					t.Fatalf("%d B cache: group-mode results differ across host schedules:\n serial: %+v\n par:    %+v", cache, serial, par)
				}
				if serial.aborts > 0 {
					anyAborts = true
				}
			}
		})
	}
	if !anyAborts {
		t.Error("contended workload aborted nothing under any algorithm; the conflict paths went untested")
	}
}

// TestGroupModeVsLegacyVisibleState checks that group mode preserves engine
// semantics (not timing): a conflict-free partitioned workload must leave the
// same visible key/value state as the same workload run in free-running mode.
func TestGroupModeVsLegacyVisibleState(t *testing.T) {
	build := func(group bool) map[uint64]int64 {
		cfg := FalconConfig()
		cfg.Threads = 4
		sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
		e, err := New(sys, cfg, kvSpec(index.Hash, 20000))
		if err != nil {
			t.Fatal(err)
		}
		tbl := e.Table("kv")
		s := tbl.Schema()
		work := func(w int) {
			base := uint64(w) * 100
			for i := uint64(0); i < 50; i++ {
				k := base + i
				if err := e.Run(w, func(tx *Txn) error {
					return tx.Insert(tbl, k, encodeKV(s, k, int64(k)))
				}); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := e.Run(w, func(tx *Txn) error {
						return tx.Delete(tbl, k)
					}); err != nil {
						t.Error(err)
						return
					}
				}
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
		out := make(map[uint64]int64)
		buf := make([]byte, s.TupleSize())
		for k := uint64(0); k < 400; k++ {
			if err := e.RunRO(0, func(tx *Txn) error { return tx.Read(tbl, k, buf) }); err == nil {
				out[k] = s.GetInt64(buf, 1)
			}
		}
		return out
	}
	legacy := build(false)
	grouped := build(true)
	if len(legacy) != len(grouped) {
		t.Fatalf("visible key counts differ: legacy %d, group %d", len(legacy), len(grouped))
	}
	for k, v := range legacy {
		if gv, ok := grouped[k]; !ok || gv != v {
			t.Fatalf("key %d: legacy %d, group %v %v", k, v, gv, ok)
		}
	}
}

// TestGroupModeSpinnersReachParkedWriter: two snapshot readers spinning on a
// row that a parked read-write transaction locked at exec time hand the token
// on to the writer, not back and forth between themselves. MV2PL and MVTO
// lock at exec time; the row was never updated, so its version chain is
// empty and the readers have no older version to read. The readers start
// behind the writer's first operation and far behind its commit, so the
// writer locks the row and parks at Commit, and both readers spin.
func TestGroupModeSpinnersReachParkedWriter(t *testing.T) {
	for _, algo := range []cc.Algo{cc.MV2PL, cc.MVTO} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/GOMAXPROCS=%d", algo, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := FalconConfig()
				cfg.CC = algo
				cfg.Threads = 3
				sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
				e, err := New(sys, cfg, kvSpec(index.Hash, 1000))
				if err != nil {
					t.Fatal(err)
				}
				tbl := e.Table("kv")
				s := tbl.Schema()
				const key = 7
				if err := e.Run(0, func(tx *Txn) error {
					return tx.Insert(tbl, key, encodeKV(s, key, 1))
				}); err != nil {
					t.Fatal(err)
				}
				e.ResetClocks()
				e.Clock(1).Advance(10_000)
				e.Clock(2).Advance(10_000)

				errs := make([]error, 3)
				got := make([]int64, 3)
				done := make(chan struct{})
				go func() {
					defer close(done)
					e.RunGroup(3, func(w int) {
						if w == 0 {
							errs[0] = e.Run(0, func(tx *Txn) error {
								if err := tx.UpdateField(tbl, key, 1, s.GetBytes(encodeKV(s, key, 2), 1)); err != nil {
									return err
								}
								tx.clk.Advance(1_000_000)
								return nil
							})
							return
						}
						buf := make([]byte, s.TupleSize())
						errs[w] = e.RunRO(w, func(tx *Txn) error {
							return tx.Read(tbl, key, buf)
						})
						got[w] = s.GetInt64(buf, 1)
					})
				}()
				select {
				case <-done:
				case <-time.After(20 * time.Second):
					t.Fatal("the phase hung: the readers kept the token from the writer")
				}
				for w, err := range errs {
					if err != nil {
						t.Fatalf("worker %d: %v", w, err)
					}
				}
				if got[1] != 2 || got[2] != 2 {
					t.Fatalf("the readers saw %d and %d, want the committed 2", got[1], got[2])
				}
			})
		}
	}
}
