package core

import "falcon/internal/cc"

// ReadForUpdate reads the tuple for key while acquiring write intent
// up-front (select-for-update). Read-modify-write code should prefer this
// over Read+Update: acquiring a shared lock first and upgrading later
// livelocks under no-wait 2PL when two writers collide on a hot tuple —
// e.g. TPC-C's warehouse and district rows.
func (tx *Txn) ReadForUpdate(t *Table, key uint64, dst []byte) error {
	return tx.readForUpdate(t, key, 0, t.schema.TupleSize(), dst)
}

// ReadFieldForUpdate is ReadForUpdate for a single column.
func (tx *Txn) ReadFieldForUpdate(t *Table, key uint64, col int, dst []byte) error {
	return tx.readForUpdate(t, key, t.schema.Offset(col), t.schema.Column(col).Size, dst)
}

// readForUpdate is "take the write intent, then read" through the same way in
// as every other operation. What is its own is one ordering: under OCC the read
// comes first, so that the version it saw is recorded for validation before the
// intent makes the slot the attempt's own (an owned slot is read without
// concurrency control). The lock-based algorithms read under the lock they just
// took, after a second look at the slot's flags.
func (tx *Txn) readForUpdate(t *Table, key uint64, off, n int, dst []byte) error {
	if err := tx.enter(t, key, true); err != nil {
		return err
	}
	tx.tstat(t).Reads++
	if ins := tx.findInsert(t, key); ins != nil {
		tx.readPending(ins, off, n, dst)
		return nil
	}
	slot, ok := tx.resolve(t, key)
	if !ok {
		return ErrNotFound
	}
	if tx.e.cfg.CC.Base() == cc.OCC {
		if err := tx.readResolved(t, key, slot, off, n, dst); err != nil {
			return err
		}
		return tx.writeIntent(t, key, slot)
	}
	if err := tx.writeIntent(t, key, slot); err != nil {
		return err
	}
	if err := liveErr(t, tx.clk, slot); err != nil {
		return err
	}
	return tx.readResolved(t, key, slot, off, n, dst)
}
