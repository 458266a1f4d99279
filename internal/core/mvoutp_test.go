package core

import (
	"sync"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// TestOutpMVSnapshotChurn exercises snapshot readers racing out-of-place
// writers (the chain-migration path) — a regression test for the stale
// invalidated-slot livelock.
func TestOutpMVSnapshotChurn(t *testing.T) {
	for _, algo := range []cc.Algo{cc.MV2PL, cc.MVTO, cc.MVOCC} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			cfg := OutpConfig()
			cfg.CC = algo
			cfg.Threads = 4
			sys := pmem.NewSystem(pmem.Config{DeviceBytes: 256 << 20})
			e, err := New(sys, cfg, kvSpec(index.Hash, 2000))
			if err != nil {
				t.Fatal(err)
			}
			tbl := e.Table("kv")
			s := tbl.Schema()
			for k := uint64(0); k < 16; k++ {
				if err := e.Run(int(k)%4, func(tx *Txn) error {
					return tx.Insert(tbl, k, encodeKV(s, k, 1))
				}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]byte, s.TupleSize())
					for i := 0; i < 500; i++ {
						k := uint64(i % 16)
						var err error
						if w%2 == 0 { // writer
							err = e.Run(w, func(tx *Txn) error {
								var b [8]byte
								layoutPutI64(b[:], int64(i))
								return tx.UpdateField(tbl, k, 1, b[:])
							})
						} else { // snapshot reader
							err = e.RunRO(w, func(tx *Txn) error {
								return tx.Read(tbl, k, buf)
							})
						}
						if err != nil {
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

// afterUpdate is an index whose Update, once it has been applied, runs a hook:
// the place where a committing writer can lose its processor.
type afterUpdate struct {
	index.Index
	hook func()
}

func (a *afterUpdate) Update(clk *sim.Clock, key, val uint64) bool {
	ok := a.Index.Update(clk, key, val)
	if h := a.hook; h != nil {
		a.hook = nil
		h()
	}
	return ok
}

// TestOutpRepointsSecondaryBeforePrimary: an out-of-place commit moves a tuple
// to a new slot and repoints both indexes. The new slot is unlocked, and
// writers resolve through the primary, so a second writer may move the tuple on
// as soon as the primary names the new slot. When the first writer repointed
// the secondary only after that, it put the secondary back on a slot the
// second writer had retired: scans by the secondary key then conflicted for
// good, and once the slot was recycled returned another tuple's payload (TPC-C
// Payment by last name: "key not found", one `falcon tpcc` Outp/ZenS cell in
// forty).
func TestOutpRepointsSecondaryBeforePrimary(t *testing.T) {
	cfg := OutpConfig()
	cfg.Threads = 2
	spec := kvSpec(index.BTree, 100)
	spec[0].SecondaryCol = 1
	e, err := New(pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20}), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	tbl := e.Table("kv")
	s := tbl.Schema()
	const key, sec = 7, 70
	if err := e.Run(0, func(tx *Txn) error { return tx.Insert(tbl, key, encodeKV(s, key, sec)) }); err != nil {
		t.Fatal(err)
	}
	touch := func(w int) error { // moves the tuple, keeps both keys
		return e.Run(w, func(tx *Txn) error { return tx.Update(tbl, key, 0, encodeKV(s, key, sec)) })
	}
	var second error
	tbl.primary = &afterUpdate{Index: tbl.primary, hook: func() { second = touch(1) }}
	if err := touch(0); err != nil {
		t.Fatal(err)
	}
	if second != nil {
		t.Fatal(second)
	}
	slot, _ := tbl.primary.Get(e.Clock(0), key)
	if got, ok := tbl.secondary.Get(e.Clock(0), sec); !ok || got != slot {
		t.Fatalf("secondary names slot %d (found %v), primary slot %d", got, ok, slot)
	}
}
