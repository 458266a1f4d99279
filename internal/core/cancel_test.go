package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"falcon/internal/obs"
)

func i64le(v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// TestRunCancelablePreAttempt: a hook that is already true stops the loop
// before any transaction begins.
func TestRunCancelablePreAttempt(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	calls := 0
	err := e.RunCancelable(0, func() bool { return true }, func(tx *Txn) error {
		calls++
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn ran %d times after pre-attempt cancel", calls)
	}
	if got := e.ObsSnapshot().Commits; got != 0 {
		t.Fatalf("commits = %d, want 0", got)
	}
}

// TestRunCancelableMidTxn: cancellation raised between operations aborts the
// attempt, rolls back its writes, and counts under the canceled abort reason.
// Every operation entry point polls the hook.
func TestRunCancelableMidTxn(t *testing.T) {
	buf := make([]byte, 64)
	for name, second := range map[string]func(tx *Txn, kv *Table) error{
		"Update":        func(tx *Txn, kv *Table) error { return tx.Update(kv, 1, kv.Schema().Offset(1), i64le(-6)) },
		"Read":          func(tx *Txn, kv *Table) error { return tx.Read(kv, 1, buf) },
		"ReadForUpdate": func(tx *Txn, kv *Table) error { return tx.ReadForUpdate(kv, 1, buf) },
		"Delete":        func(tx *Txn, kv *Table) error { return tx.Delete(kv, 1) },
		"Insert":        func(tx *Txn, kv *Table) error { return tx.Insert(kv, 2, encodeKV(kv.Schema(), 2, 2)) },
	} {
		t.Run(name, func(t *testing.T) {
			e := newKVEngine(t, FalconConfig())
			kv := e.Table("kv")
			s := kv.Schema()
			if err := e.Run(0, func(tx *Txn) error {
				return tx.Insert(kv, 1, encodeKV(s, 1, 100))
			}); err != nil {
				t.Fatal(err)
			}

			var fired bool
			err := e.RunCancelable(0, func() bool { return fired }, func(tx *Txn) error {
				if err := tx.Update(kv, 1, s.Offset(1), i64le(-5)); err != nil {
					return err
				}
				fired = true // the next op entry point must observe the cancel
				if err := second(tx, kv); err != nil {
					return err
				}
				t.Fatal("second op succeeded after cancel fired")
				return nil
			})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}

			snap := e.ObsSnapshot()
			if got := snap.AbortCounts[obs.AbortCanceled]; got != 1 {
				t.Fatalf("canceled aborts = %d, want 1", got)
			}
			// The canceled attempt's first Update must not be visible.
			var v int64
			if err := e.RunRO(0, func(tx *Txn) error {
				if err := tx.Read(kv, 1, buf); err != nil {
					return err
				}
				v = s.GetInt64(buf, 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if v != 100 {
				t.Fatalf("value = %d after canceled txn, want 100", v)
			}
		})
	}
}

// TestRunCancelableNilHook: a nil hook degrades to plain Run.
func TestRunCancelableNilHook(t *testing.T) {
	e := newKVEngine(t, FalconConfig())
	kv := e.Table("kv")
	s := kv.Schema()
	if err := e.RunCancelable(0, nil, func(tx *Txn) error {
		return tx.Insert(kv, 7, encodeKV(s, 7, 7))
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunROCancelable(0, nil, func(tx *Txn) error {
		buf := make([]byte, s.TupleSize())
		return tx.Read(kv, 7, buf)
	}); err != nil {
		t.Fatal(err)
	}
}
