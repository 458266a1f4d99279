package core

import (
	"errors"
	"fmt"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/pmem"
)

// TestAttemptReachesAKeyOnce: within one attempt, an operation on a primary key
// the attempt already reached takes the slot from its access entry and probes
// no index (Txn.lookup). On every preset under every algorithm:
//
//   - Read, ReadForUpdate or a primary scan, then Update, UpdateField or Delete
//     of the same key, costs one index probe in all, and the committed rows are
//     the model's;
//   - an entry a secondary scan made holds a secondary key, so it never answers
//     the primary lookup of the row whose primary key equals that secondary key;
//     a primary read of the scanned row itself takes the entry over;
//   - Insert after a read of its key still probes the index.
func TestAttemptReachesAKeyOnce(t *testing.T) {
	for _, base := range allEngineConfigs() {
		for _, algo := range cc.All {
			cfg := base
			cfg.CC, cfg.Threads = algo, 1
			t.Run(fmt.Sprintf("%s/%s", cfg.Name, algo), func(t *testing.T) { reachOnce(t, cfg) })
		}
	}
}

func reachOnce(t *testing.T, cfg Config) {
	spec := kvSpec(index.BTree, 256)
	spec[0].SecondaryCol = 1
	e, err := New(pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20}), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	kv := e.Table("kv")
	s := kv.Schema()
	buf := make([]byte, s.TupleSize())
	const padCol = 2
	// model holds each committed row's secondary key and pad marker; nil is
	// no row.
	type row struct{ sec, mark int64 }
	model := map[uint64]*row{}
	insert := func(k uint64, sec int64) {
		t.Helper()
		if err := e.Run(0, func(tx *Txn) error { return tx.Insert(kv, k, encodeKV(s, k, sec)) }); err != nil {
			t.Fatal(err)
		}
		model[k] = &row{sec: sec}
	}
	// attempt runs fn as one transaction and returns the index probes it made.
	attempt := func(fn func(tx *Txn) error) uint64 {
		t.Helper()
		before := e.tstats[0][kv.id].IndexProbes
		if err := e.Run(0, fn); err != nil {
			t.Fatal(err)
		}
		return e.tstats[0][kv.id].IndexProbes - before
	}
	// check reads every key the model names and compares.
	check := func(what string) {
		t.Helper()
		for k, r := range model {
			err := e.RunRO(0, func(tx *Txn) error { return tx.Read(kv, k, buf) })
			switch {
			case r == nil && !errors.Is(err, ErrNotFound):
				t.Fatalf("%s: key %d: %v, model has no row", what, k, err)
			case r == nil:
			case err != nil:
				t.Fatalf("%s: key %d: %v", what, k, err)
			case s.GetInt64(buf, 1) != r.sec || s.GetInt64(buf, padCol) != r.mark:
				t.Fatalf("%s: key %d reads (%d, %d), model (%d, %d)", what, k,
					s.GetInt64(buf, 1), s.GetInt64(buf, padCol), r.sec, r.mark)
			}
		}
	}

	firsts := []struct {
		name string
		op   func(tx *Txn, k uint64) error
	}{
		{"Read", func(tx *Txn, k uint64) error { return tx.Read(kv, k, buf) }},
		{"ReadForUpdate", func(tx *Txn, k uint64) error { return tx.ReadForUpdate(kv, k, buf) }},
		{"Scan", func(tx *Txn, k uint64) error {
			n, err := tx.Scan(kv, k, 1, func(uint64, []byte) bool { return true })
			if err == nil && n != 1 {
				err = fmt.Errorf("scan from %d visited %d rows", k, n)
			}
			return err
		}},
	}
	seconds := []struct {
		name string
		op   func(tx *Txn, k uint64, mark int64) error
		del  bool
	}{
		{"Update", func(tx *Txn, k uint64, mark int64) error {
			return tx.Update(kv, k, s.Offset(padCol), i64le(mark))
		}, false},
		{"UpdateField", func(tx *Txn, k uint64, mark int64) error { return tx.UpdateField(kv, k, padCol, i64le(mark)) }, false},
		{"Delete", func(tx *Txn, k uint64, _ int64) error { return tx.Delete(kv, k) }, true},
	}
	k := uint64(100)
	for _, first := range firsts {
		for _, second := range seconds {
			k++
			insert(k, int64(1000+k))
			mark := int64(k * 7)
			probes := attempt(func(tx *Txn) error {
				if err := first.op(tx, k); err != nil {
					return err
				}
				return second.op(tx, k, mark)
			})
			if probes != 1 {
				t.Errorf("%s then %s of one key: %d index probes, want 1", first.name, second.name, probes)
			}
			if second.del {
				model[k] = nil
			} else {
				model[k].mark = mark
			}
			check(first.name + " then " + second.name)
		}
	}

	// Row 1's secondary key is 2, row 2's primary key. A secondary scan from 2
	// reaches row 1; the lookups of key 2 that follow must reach row 2.
	insert(1, 2)
	insert(2, 5000)
	probes := attempt(func(tx *Txn) error {
		n, err := tx.ScanSecondary(kv, 2, 1, func(sec uint64, p []byte) bool {
			if sec != 2 || s.GetUint64(p, 0) != 1 {
				t.Errorf("secondary scan from 2 visited secondary key %d of row %d, want row 1", sec, s.GetUint64(p, 0))
			}
			return true
		})
		if err != nil || n != 1 {
			return fmt.Errorf("secondary scan: %d rows, %v", n, err)
		}
		if err := tx.Read(kv, 2, buf); err != nil {
			return err
		}
		if got := s.GetUint64(buf, 0); got != 2 {
			return fmt.Errorf("read of key 2 returned row %d", got)
		}
		return tx.UpdateField(kv, 2, padCol, i64le(22))
	})
	model[2].mark = 22
	if probes != 2 { // the scan's, the read's; the update reuses the read's entry
		t.Errorf("secondary scan, read, update: %d index probes, want 2", probes)
	}
	check("secondary scan then key 2")

	// The row a secondary scan reached, read by its primary key: the read
	// probes the index and takes the entry over, and the update reuses it.
	probes = attempt(func(tx *Txn) error {
		if _, err := tx.ScanSecondary(kv, 2, 1, func(uint64, []byte) bool { return true }); err != nil {
			return err
		}
		if err := tx.Read(kv, 1, buf); err != nil {
			return err
		}
		return tx.UpdateField(kv, 1, padCol, i64le(11))
	})
	model[1].mark = 11
	if probes != 2 {
		t.Errorf("secondary scan, read and update of its row: %d index probes, want 2", probes)
	}
	check("secondary scan then its row")

	// Insert never asks the access set: after a read of the key it still
	// probes the index, and finds the row.
	probes = attempt(func(tx *Txn) error {
		if err := tx.Read(kv, 2, buf); err != nil {
			return err
		}
		if err := tx.Insert(kv, 2, encodeKV(s, 2, 9)); !errors.Is(err, ErrDuplicateKey) {
			return fmt.Errorf("insert of an existing key: %v, want ErrDuplicateKey", err)
		}
		return nil
	})
	if probes != 2 {
		t.Errorf("read then insert of one key: %d index probes, want 2", probes)
	}
	check("read then insert")
}
