package core

import (
	"sync/atomic"

	"falcon/internal/wal"
)

// A transaction's view of the tuples it touched is two lists, both kept in the
// worker's scratch between attempts (a worker has one open attempt):
//
//   - the access set, one entry per (table, slot) the attempt has reached
//     through concurrency control — what it read, what it holds, and in group
//     mode its private copy of the slot's two CC words;
//   - the op list, the buffered inserts, updates and deletes in the order they
//     were issued, which for an in-place engine is the order of the redo
//     record (Algorithm 1's write set is the log window; the op list is its
//     index).
//
// Every operation reaches a tuple the same way: enter (cancel poll, op cost) →
// the transaction's own pending insert, or resolve → the slot's access entry →
// the algorithm's step (readResolved, writeIntentCC) → payload →
// overlayOwnWrites. DESIGN.md §3 "Access set and op list" has the traps.

// accessMode says what the attempt has done to a slot and holds on it.
type accessMode uint8

const (
	// accRead: the slot was read under concurrency control. OCC validates
	// word; the round barrier checks vt against earlier winners' commits.
	accRead accessMode = 1 << iota
	// accShared: a 2PL read lock is held.
	accShared
	// accIntent: an OCC write intent; validation takes the lock.
	accIntent
	// accExcl: the write lock is held (taken at lockVt, over the word pre).
	accExcl
	// accDeleted: the attempt has buffered a delete; its later operations on
	// the key see the row gone.
	accDeleted
)

// access is one entry of the access set.
type access struct {
	t    *Table
	slot uint64
	key  uint64 // primary key (contention attribution)
	mode accessMode
	pre  uint64 // the word under our write lock (TO/OCC: restored on abort)
	// word is the first version word an OCC read observed. A later read of
	// the slot must not refresh it: validating the newer word would pass a
	// non-repeatable read. The abort stays at validation.
	word uint64
	// vt is when the attempt last read the slot under concurrency control
	// (the entry's creation until it has); lockVt is when it took the write
	// lock. The round barrier compares them with earlier winners' commits.
	vt, lockVt uint64
	// lock and readTS are group mode's private copy of the slot's CC words,
	// taken from the round-frozen live words on first touch; the live words
	// are never locked mid-round, and the commit tail stores the final word.
	lock, readTS atomic.Uint64
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
// place entries are made, so every entry carries a virtual time and, in group
// mode, its copy of the CC words. The pointer is into the set: it is good until
// the next call, which may grow the slice and move the entries.
func (tx *Txn) access(t *Table, slot, key uint64) *access {
	if a := tx.find(t, slot); a != nil {
		return a
	}
	tx.acc = append(tx.acc, access{t: t, slot: slot, key: key, vt: tx.clk.Nanos()})
	a := &tx.acc[len(tx.acc)-1]
	if tx.dt != nil {
		lock, readTS := t.heap.Meta(slot)
		a.lock.Store(lock.Load())
		a.readTS.Store(readTS.Load())
	}
	return a
}

// words returns the CC words the algorithms run against: the live heap words
// when workers run free, the entry's private copy in group mode. Like the entry
// they are good until the next access call.
func (tx *Txn) words(a *access) (lock, readTS *atomic.Uint64) {
	if tx.dt != nil {
		return &a.lock, &a.readTS
	}
	return a.t.heap.Meta(a.slot)
}

// owned reports whether the attempt may write the slot: it holds the write
// lock, or under OCC has marked its intent.
func (a *access) owned() bool { return a.mode&(accExcl|accIntent) != 0 }

// noteRead records a read under concurrency control at virtual time now.
func (a *access) noteRead(now uint64) {
	a.mode |= accRead
	a.vt = now
}

// noteLocked records the write lock, taken at now over the word pre.
func (a *access) noteLocked(pre, now uint64) {
	a.mode = a.mode&^accShared | accExcl
	a.pre, a.lockVt = pre, now
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
