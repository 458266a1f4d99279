package core

import "falcon/internal/wal"

// A transaction's view of the tuples it touched is two lists, both kept in the
// worker's scratch between attempts (a worker has one open attempt):
//
//   - the access set, one entry per (table, slot) the attempt has reached
//     through concurrency control — what it read and what it holds;
//   - the op list, the buffered inserts, updates and deletes in the order they
//     were issued, which for an in-place engine is the order of the redo
//     record (Algorithm 1's write set is the log window; the op list is its
//     index).
//
// Every operation reaches a tuple the same way: enter (cancel poll, op cost) →
// the transaction's own pending insert, or lookup (the attempt's live entry for
// the key, else the primary index) → the slot's access entry → the algorithm's
// step (readResolved, writeIntentCC) → payload → overlayOwnWrites. Insert alone
// probes the index whatever the access set holds. DESIGN.md §3 "Access set and
// op list" has the traps.

// accessMode says what the attempt has done to a slot and holds on it.
type accessMode uint8

const (
	// accRead: the slot was read under concurrency control; OCC validates
	// word.
	accRead accessMode = 1 << iota
	// accShared: a 2PL read lock is held.
	accShared
	// accIntent: an OCC write intent; validation takes the lock.
	accIntent
	// accExcl: the write lock is held (taken over the word pre).
	accExcl
	// accDeleted: the attempt has buffered a delete; its later operations on
	// the key see the row gone.
	accDeleted
)

// access is one entry of the access set.
type access struct {
	t    *Table
	slot uint64
	key  uint64 // primary key (lookup, contention attribution), or the secondary key when bySec
	mode accessMode
	// bySec: a secondary scan made the entry, so key is a secondary key and
	// the entry never answers a primary lookup.
	bySec bool
	pre   uint64 // the word under our write lock (TO/OCC: restored on abort)
	// word is the first version word an OCC read observed. A later read of
	// the slot must not refresh it: validating the newer word would pass a
	// non-repeatable read. The abort stays at validation.
	word uint64
}

// find returns the attempt's entry for (t, slot), nil when it has none. The
// access set is small and scanned linearly; this is the one lookup.
func (tx *Txn) find(t *Table, slot uint64) *access {
	for i := range tx.acc {
		if a := &tx.acc[i]; a.slot == slot && a.t == t {
			return a
		}
	}
	return nil
}

// access returns the entry for (t, slot), creating it on first touch — the only
// place entries are made. bySec says key is a secondary key; a primary key
// replaces one on an entry a secondary scan made. The pointer is into the set:
// it is good until the next call, which may grow the slice and move the
// entries.
func (tx *Txn) access(t *Table, slot, key uint64, bySec bool) *access {
	if a := tx.find(t, slot); a != nil {
		if a.bySec && !bySec {
			a.key, a.bySec = key, false
		}
		return a
	}
	tx.acc = append(tx.acc, access{t: t, slot: slot, key: key, bySec: bySec})
	return &tx.acc[len(tx.acc)-1]
}

// lookup returns the slot of t's primary key: the slot of the attempt's live
// entry for it (any mode bit set: the attempt read it under concurrency control
// or holds it), else the primary index's answer. Reusing the slot is safe as a
// validated optimistic read is: OCC validates the first word it observed at
// commit (a row superseded or deleted since fails it), and the lock-based
// algorithms hold the slot. A dead entry (mode 0: the read found the row gone,
// or lost a conflict) answers nothing, and Insert never asks (see Txn.Insert).
func (tx *Txn) lookup(t *Table, key uint64) (uint64, bool) {
	for i := range tx.acc {
		if a := &tx.acc[i]; a.key == key && a.t == t && a.mode != 0 && !a.bySec {
			return a.slot, true
		}
	}
	return tx.resolve(t, key)
}

// owned reports whether the attempt may write the slot: it holds the write
// lock, or under OCC has marked its intent.
func (a *access) owned() bool { return a.mode&(accExcl|accIntent) != 0 }

// noteLocked records the write lock, taken over the word pre.
func (a *access) noteLocked(pre uint64) {
	a.mode = a.mode&^accShared | accExcl
	a.pre = pre
}

// txnOp is one buffered insert, update or delete. An insert's slot is
// pre-allocated and private to the transaction until commit publishes it in the
// index.
type txnOp struct {
	t    *Table
	kind uint8 // wal.OpInsert, wal.OpUpdate or wal.OpDelete
	slot uint64
	key  uint64
	// off and n are the payload range the op dirties: the written bytes for an
	// update, the whole tuple for an insert, none (the header alone) for a
	// delete.
	off, n int
	// logPos locates the op in the log window (in-place engines); data holds
	// the update's bytes or the insert's payload for out-of-place engines,
	// which buffer in DRAM.
	logPos int
	data   []byte
	// secKey is the secondary key captured when a delete was buffered.
	secKey uint64
}

// findInsert returns the transaction's own pending insert of key. The pointer
// is into the op list: good until the next op is buffered.
func (tx *Txn) findInsert(t *Table, key uint64) *txnOp {
	for i := range tx.ops {
		if op := &tx.ops[i]; op.kind == wal.OpInsert && op.key == key && op.t == t {
			return op
		}
	}
	return nil
}

// firstOn reports whether ops[i] is the first op on its slot: the commit
// publishes one old version and stamps one writer timestamp per written slot,
// however many ops wrote it. (A delete is always the last op on its slot — the
// transaction sees the row gone afterwards — so it is never in the way.)
func (tx *Txn) firstOn(i int) bool {
	op := &tx.ops[i]
	for j := range tx.ops[:i] {
		if p := &tx.ops[j]; p.slot == op.slot && p.t == op.t {
			return false
		}
	}
	return true
}
