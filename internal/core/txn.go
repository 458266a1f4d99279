package core

import (
	"errors"
	"fmt"
	"runtime"

	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/obs"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// ErrConflict reports a concurrency-control conflict; the transaction has
// been poisoned and must be aborted (Engine.Run does this automatically and
// retries).
var ErrConflict = errors.New("core: transaction conflict")

// ErrDuplicateKey reports an insert of an existing key.
var ErrDuplicateKey = errors.New("core: duplicate key")

// ErrNotFound reports an operation on a missing key.
var ErrNotFound = errors.New("core: key not found")

// ErrTxnTooLarge reports a redo log that exceeded the window's overflow
// capacity.
var ErrTxnTooLarge = errors.New("core: transaction exceeds log capacity")

// ErrReadOnly reports a write attempted in a read-only transaction.
var ErrReadOnly = errors.New("core: read-only transaction")

// ErrCanceled reports a transaction cut short by its cancellation hook: the
// request's deadline expired (or the caller withdrew it) while the
// transaction executed. The attempt is aborted and never retried.
var ErrCanceled = errors.New("core: transaction canceled")

// Txn is one transaction. It is bound to the worker thread that began it and
// must not be shared across goroutines.
type Txn struct {
	e      *Engine
	worker int
	tid    uint64
	clk    *sim.Clock
	ro     bool
	done   bool

	log *wal.TxnLog // in-place engines: the write set lives in the window

	// pr is this worker's probe: phase switches, conflicts and the outcome
	// are reported to it, once each. cause records the abort reason
	// determined at the failure site (see setAbortCause), consumed by Abort.
	pr       *obs.Probe
	cause    obs.AbortReason
	causeSet bool
	// dt is the deterministic group-mode state (nil in free-running mode —
	// the instrumented sites pay one pointer test). See det.go.
	dt *detTxn
	// cancel, when non-nil, is polled at operation entry points; a true
	// return makes the op fail with ErrCanceled (deadline propagation from
	// the serving layer — nil in the common embedded case, so the op path
	// pays one pointer test).
	cancel func() bool

	// acc is the access set and ops the op list (access.go): everything the
	// attempt knows about the tuples it touched. Both are taken from the
	// worker's scratch at begin and handed back, with their capacity, at finish.
	acc []access
	ops []txnOp
}

// setAbortCause records why this transaction is about to abort. Later calls
// overwrite earlier ones: the error that finally forces the abort wins (a
// conflict swallowed and retried by the closure must not misattribute a
// subsequent user rollback).
func (tx *Txn) setAbortCause(r obs.AbortReason) {
	tx.cause, tx.causeSet = r, true
}

// classifyAbort maps the error that aborted the transaction onto the abort
// taxonomy. ErrConflict keeps a more specific cause recorded at the failure
// site (occValidate marks validation failures) and otherwise defaults to a
// lock conflict, which covers the exec-time no-wait CC rejections.
func (tx *Txn) classifyAbort(err error) {
	switch {
	case errors.Is(err, ErrRollback):
		tx.setAbortCause(obs.AbortUserRollback)
	case errors.Is(err, ErrTableFull):
		tx.setAbortCause(obs.AbortTableFull)
	case errors.Is(err, ErrTxnTooLarge):
		tx.setAbortCause(obs.AbortLogFull)
	case errors.Is(err, ErrCanceled):
		tx.setAbortCause(obs.AbortCanceled)
	case errors.Is(err, ErrConflict):
		if !tx.causeSet {
			tx.setAbortCause(obs.AbortLockConflict)
		}
	default:
		tx.setAbortCause(obs.AbortOther)
	}
}

// Begin starts a read-write transaction on worker's thread.
func (e *Engine) Begin(worker int) *Txn {
	return e.begin(worker, false)
}

// BeginRO starts a read-only transaction. Under multi-version algorithms it
// reads a consistent snapshot without acquiring any locks; under
// single-version algorithms it is an ordinary transaction that happens not
// to write.
func (e *Engine) BeginRO(worker int) *Txn {
	return e.begin(worker, true)
}

func (e *Engine) begin(worker int, ro bool) *Txn {
	clk := e.clocks[worker]
	var tid uint64
	if e.det != nil {
		tid = e.detTID(worker, clk)
	} else {
		// A TID that is drawn but not yet registered is invisible to a
		// concurrent Min(), which would then hand version GC and slot reclaim
		// a horizon above this snapshot. Register a lower bound first: every
		// TID drawn from here on is larger.
		e.active.Set(worker, e.gen.Seq()<<8|0xFF)
		tid = e.gen.Next(worker)
	}
	e.active.Set(worker, tid)
	tx := &Txn{e: e, worker: worker, tid: tid, clk: clk, ro: ro, pr: &e.probes[worker]}
	ws := &e.scratch[worker]
	tx.acc, tx.ops = ws.acc[:0], ws.ops[:0]
	ws.acc, ws.ops = nil, nil // taken while the attempt is open, like the scan buffer
	if e.det != nil {
		tx.dt = &detTxn{}
	}
	// Open the probe before charging the begin overhead so the phases
	// partition every transactional nanosecond (the overhead lands in exec).
	tx.pr.Begin(tid, clk)
	clk.Advance(e.sys.Cost().TxnOverhead)
	if e.cfg.Update == InPlace && !ro {
		if e.board != nil {
			// Group-commit backpressure: the next slot's record may belong
			// to an epoch that has not reached its durable point; wait out
			// the bounded epoch timeout before overwriting it.
			tx.pr.To(obs.PhaseGroupWait)
			e.windows[worker].GroupWait(clk)
		}
		tx.pr.To(obs.PhaseLogAppend)
		tx.log = e.windows[worker].Begin(clk, tid)
		tx.pr.To(obs.PhaseExec)
	}
	return tx
}

// TID returns the transaction id (also its snapshot timestamp).
func (tx *Txn) TID() uint64 { return tx.tid }

// snapshotRead reports whether reads bypass concurrency control via the
// version store.
func (tx *Txn) snapshotRead() bool { return tx.ro && tx.e.cfg.CC.MultiVersion() }

// wtsOf extracts the writer TID from a shadow word under the engine's CC
// encoding.
func (e *Engine) wtsOf(word uint64) uint64 {
	if e.cfg.CC.Base() == cc.TwoPL {
		return cc.WTS2PL(word)
	}
	return cc.WTSTO(word)
}

// wordOf is wtsOf's inverse: the unlocked shadow word that names tid as the
// slot's writer.
func (e *Engine) wordOf(tid uint64) uint64 {
	if e.cfg.CC.Base() == cc.TwoPL {
		return tid & cc.WTSMask2PL
	}
	return tid & cc.WTSMaskTO
}

// ---- read path ----

// Read copies the tuple payload for key into dst (len >= tuple size). It
// returns ErrNotFound for missing keys and ErrConflict on CC conflicts.
func (tx *Txn) Read(t *Table, key uint64, dst []byte) error {
	return tx.read(t, key, 0, t.schema.TupleSize(), dst)
}

// ReadField copies one column of the tuple for key into dst.
func (tx *Txn) ReadField(t *Table, key uint64, col int, dst []byte) error {
	return tx.read(t, key, t.schema.Offset(col), t.schema.Column(col).Size, dst)
}

// tstat returns this worker's counter row for t. Single-owner like the
// phase sets: only the owning worker writes it.
func (tx *Txn) tstat(t *Table) *obs.TableStats {
	return &tx.e.tstats[tx.worker][t.id].TableStats
}

// enter is the head of every operation: the cancel poll (so an expired deadline
// surfaces within one op, not one transaction), the op's fixed cost, the
// read-only check for a write, the popularity count.
func (tx *Txn) enter(t *Table, key uint64, write bool) error {
	if tx.cancel != nil && tx.cancel() {
		return ErrCanceled
	}
	tx.clk.Advance(tx.e.sys.Cost().OpOverhead)
	if write && tx.ro {
		return ErrReadOnly
	}
	tx.pr.Touch(int(t.id), key)
	return nil
}

func (tx *Txn) read(t *Table, key uint64, off, n int, dst []byte) error {
	if err := tx.enter(t, key, false); err != nil {
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
	return tx.readResolved(t, key, slot, off, n, dst)
}

// resolve looks key up in the primary index. When the engine distrusts its
// recovered NVM index (see Engine.validateHits) the hit is validated
// against the tuple's durable key column and flags: a key mismatch or a
// dead occupant means the entry is a stale survivor of a lost in-cache
// index update and is treated as a miss. (A key whose live version moved
// was repointed during recovery, so a surviving dead-slot entry can only
// belong to a key with no live version.)
func (tx *Txn) resolve(t *Table, key uint64) (uint64, bool) {
	tx.tstat(t).IndexProbes++
	slot, ok := t.primary.Get(tx.clk, key)
	if !ok {
		return 0, false
	}
	if tx.e.validateHits {
		if t.heap.ReadFlags(tx.clk, slot)&(heap.FlagDeleted|heap.FlagInvalidated) != 0 {
			return 0, false
		}
		if t.heap.ReadRangeU64(tx.clk, slot, t.schema.Offset(t.keyCol)) != key {
			return 0, false
		}
	}
	return slot, true
}

// readResolved is the concurrency-controlled read of an already-resolved
// heap slot, shared by point reads, ReadForUpdate and scans.
func (tx *Txn) readResolved(t *Table, key, slot uint64, off, n int, dst []byte) error {
	if tx.snapshotRead() {
		return tx.snapshotReadSlot(t, key, slot, off, n, dst)
	}

	a := tx.access(t, slot, key)

	// Read-your-own-write: the slot is ours to write; read the base tuple and
	// overlay pending ops.
	if a.owned() {
		if a.mode&accDeleted != 0 {
			return ErrNotFound
		}
		tx.readPayload(t, key, slot, off, n, dst)
		if a.mode&accExcl != 0 {
			// A read under our own write lock is still a read the round
			// barrier must see (an OCC intent holds no lock and has observed
			// no word to validate).
			a.noteRead(tx.clk.Nanos())
		}
		tx.overlayOwnWrites(t, slot, off, n, dst)
		return nil
	}

	lock, readTS := tx.words(a)
	switch tx.e.cfg.CC.Base() {
	case cc.TwoPL:
		if a.mode&accShared == 0 {
			if !cc.TryReadLock2PL(lock) {
				return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictLockFail)
			}
			a.mode |= accShared
		}
		// The lock makes the flags stable.
		if err := liveErr(t, tx.clk, slot); err != nil {
			return err
		}
		tx.readPayload(t, key, slot, off, n, dst)
		a.noteRead(tx.clk.Nanos())
		return nil

	case cc.TO:
		word := lock.Load()
		if cc.Locked(word) {
			return tx.ccConflict(t, key, slot, word, obs.ConflictLockFail)
		}
		if cc.WTSTO(word) > tx.tid {
			return tx.ccConflict(t, key, slot, word, obs.ConflictTSOrder)
		}
		flags := t.heap.ReadFlags(tx.clk, slot)
		cc.MaxTS(readTS, tx.tid)
		tx.readPayload(t, key, slot, off, n, dst)
		if lock.Load() != word {
			// Concurrent writer slipped in: torn read.
			return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictTornRead)
		}
		if err := flagsErr(flags); err != nil {
			return err
		}
		a.noteRead(tx.clk.Nanos())
		return nil

	default: // OCC
		word := lock.Load()
		if cc.Locked(word) {
			return tx.ccConflict(t, key, slot, word, obs.ConflictLockFail) // no-wait
		}
		flags := t.heap.ReadFlags(tx.clk, slot)
		tx.readPayload(t, key, slot, off, n, dst)
		if lock.Load() != word {
			return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictTornRead)
		}
		if err := flagsErr(flags); err != nil {
			return err
		}
		if a.mode&accRead == 0 {
			a.word = word // the first word observed is the one validated
		}
		a.noteRead(tx.clk.Nanos())
		return nil
	}
}

// flagsErr maps slot flags to read outcomes: deleted tuples read as absent;
// an invalidated (superseded out-of-place) version forces a retry so the
// reader re-resolves the index to the current version.
func flagsErr(flags uint8) error {
	if flags&heap.FlagDeleted != 0 {
		return ErrNotFound
	}
	if flags&heap.FlagInvalidated != 0 {
		return ErrConflict
	}
	return nil
}

func liveErr(t *Table, clk *sim.Clock, slot uint64) error {
	return flagsErr(t.heap.ReadFlags(clk, slot))
}

// liveIntent rejects write intents on dead slots — a writer may have raced
// us to this version and superseded it; the index must be re-resolved. The
// just-acquired lock stays tracked and is released on abort.
func (tx *Txn) liveIntent(t *Table, slot uint64) error {
	if err := liveErr(t, tx.clk, slot); err != nil {
		if errors.Is(err, ErrNotFound) {
			return err
		}
		return ErrConflict
	}
	return nil
}

// readPayload reads tuple bytes, consulting the ZenS tuple cache when
// enabled.
func (tx *Txn) readPayload(t *Table, key uint64, slot uint64, off, n int, dst []byte) {
	if tc := tx.tupleCache(); tc != nil {
		scratch := tx.e.scratchFor(tx.worker, t.schema.TupleSize())
		if tc.get(tx.clk, t.id, key, scratch) {
			copy(dst[:n], scratch[off:off+n])
			return
		}
		t.heap.ReadPayload(tx.clk, slot, scratch)
		tc.put(tx.clk, t.id, key, scratch)
		copy(dst[:n], scratch[off:off+n])
		return
	}
	t.heap.ReadRange(tx.clk, slot, off, dst[:n])
}

// snapshotReadSlot performs the MVCC read of Figure 6: try the in-NVM tuple
// with a seqlock check; fall back to the version chain. A snapshot newer
// than an in-flight writer must wait for that writer's in-place apply to
// finish (its chain only covers older intervals), so the loop spins briefly
// in that case — writers hold tuples only across the short apply phase.
func (tx *Txn) snapshotReadSlot(t *Table, key, slot uint64, off, n int, dst []byte) error {
	start := tx.clk.Nanos()
	spins, err := tx.snapshotReadSlotSpin(t, slot, off, n, dst)
	if spins > 0 {
		// The read spun behind a mid-apply writer (start approximates the
		// first probe); the word now carries the writer it waited behind.
		lock, _ := t.heap.Meta(slot)
		tx.pr.SpinWait(int(t.id), key, slot, tx.e.holderOf(lock.Load()), start, tx.clk.Nanos(), spins)
	}
	return err
}

func (tx *Txn) snapshotReadSlotSpin(t *Table, slot uint64, off, n int, dst []byte) (spins uint64, err error) {
	lock, _ := t.heap.Meta(slot)
	for {
		word := lock.Load()
		if !cc.Locked(word) && tx.e.wtsOf(word) <= tx.tid {
			flags := t.heap.ReadFlags(tx.clk, slot)
			t.heap.ReadRange(tx.clk, slot, off, dst[:n])
			if lock.Load() == word {
				if flags&heap.FlagDeleted != 0 {
					// Deleted at or before our snapshot.
					return spins, ErrNotFound
				}
				if flags&heap.FlagInvalidated == 0 {
					return spins, nil
				}
				// Superseded out-of-place version: consult the chain.
			} else {
				continue // torn read: retry
			}
		}
		if v := t.versions.ReadVisible(tx.clk, slot, tx.tid); v != nil {
			if v.SlotRef != 0 {
				t.heap.ReadRange(tx.clk, v.SlotRef-1, off, dst[:n])
			} else {
				copy(dst[:n], v.Data[off:off+n])
			}
			return spins, nil
		}
		// No version for us in the chain. What that means can be told only
		// from the word the chain was read under: a writer that was mid-apply
		// then has since published its pre-image, and an unlocked word loaded
		// now would pass its tuple off as created after our snapshot (TPC-C
		// StockLevel under MV2PL: "key not found" for a stock row).
		if !cc.Locked(word) && lock.Load() == word {
			flags := t.heap.ReadFlags(tx.clk, slot)
			if flags&heap.FlagInvalidated != 0 {
				// Stale out-of-place version whose chain migrated to its
				// successor; re-resolve through the index.
				return spins, ErrConflict
			}
			if flags&heap.FlagDeleted != 0 {
				return spins, ErrNotFound
			}
			if tx.e.wtsOf(word) > tx.tid {
				// Genuinely created after our snapshot.
				return spins, ErrNotFound
			}
		}
		// A writer newer than every chained version but older than our
		// snapshot is mid-apply; wait for it.
		spins++
		runtime.Gosched()
	}
}

// ---- write buffering ----

// Update overwrites payload bytes [off, off+len(data)) of the tuple for key.
func (tx *Txn) Update(t *Table, key uint64, off int, data []byte) error {
	if err := tx.enter(t, key, true); err != nil {
		return err
	}
	if ins := tx.findInsert(t, key); ins != nil {
		return tx.updatePendingInsert(ins, off, data)
	}
	slot, ok := tx.resolve(t, key)
	if !ok {
		return ErrNotFound
	}
	if err := tx.writeIntent(t, key, slot); err != nil {
		return err
	}
	return tx.bufferOp(txnOp{t: t, kind: wal.OpUpdate, slot: slot, key: key, off: off, n: len(data)}, data)
}

// UpdateField overwrites one column.
func (tx *Txn) UpdateField(t *Table, key uint64, col int, data []byte) error {
	return tx.Update(t, key, t.schema.Offset(col), data)
}

// Delete removes the tuple for key at commit. From here on the transaction
// sees the row gone: Read, ReadForUpdate, Update and a second Delete of the key
// return ErrNotFound and a scan skips it. Two cases are pinned as they are, not
// as they should be: Delete of a key this transaction inserted returns
// ErrNotFound (the pending insert is not in the index, and stays in the write
// set), and Insert of a key this transaction deleted returns ErrDuplicateKey
// (the index entry goes at commit).
func (tx *Txn) Delete(t *Table, key uint64) error {
	if err := tx.enter(t, key, true); err != nil {
		return err
	}
	slot, ok := tx.resolve(t, key)
	if !ok {
		return ErrNotFound
	}
	if err := tx.writeIntent(t, key, slot); err != nil {
		return err
	}
	op := txnOp{t: t, kind: wal.OpDelete, slot: slot, key: key}
	if t.secondary != nil {
		op.secKey = t.heap.ReadRangeU64(tx.clk, slot, t.schema.Offset(t.secondaryCol))
	}
	if err := tx.bufferOp(op, nil); err != nil {
		return err
	}
	tx.find(t, slot).mode |= accDeleted
	return nil
}

// Insert adds a tuple with the given payload (len = tuple size). The key
// must equal the payload's key column; the slot becomes visible at commit.
func (tx *Txn) Insert(t *Table, key uint64, payload []byte) error {
	if err := tx.enter(t, key, true); err != nil {
		return err
	}
	if tx.findInsert(t, key) != nil {
		return ErrDuplicateKey
	}
	if !tx.reserveKey(t, key) {
		// Another in-flight insert holds the key latch.
		return tx.ccConflict(t, key, 0, 0, obs.ConflictLockFail)
	}
	if _, exists := tx.resolve(t, key); exists {
		tx.releaseKey(t, key)
		return ErrDuplicateKey
	}
	slot, err := t.heap.Alloc(tx.clk, tx.worker, tx.e.minActive())
	if err != nil {
		tx.releaseKey(t, key)
		if errors.Is(err, heap.ErrReclaimPending) {
			return ErrConflict // backpressure: retry once horizons advance
		}
		return fmt.Errorf("%w: %s (insert)", ErrTableFull, t.name)
	}
	size := t.schema.TupleSize()
	op := txnOp{t: t, kind: wal.OpInsert, slot: slot, key: key, n: size}
	if err := tx.bufferOp(op, payload[:size]); err != nil {
		tx.releaseKey(t, key)
		tx.freeInsertSlot(t, slot)
		return err
	}
	return nil
}

// freeInsertSlot recycles a slot an insert allocated and never published. It
// must not go back with an older durable timestamp than it came with: log
// replay skips a record older than the slot's timestamp, and a zero would let
// every record that names the slot and is still in a window replay (the insert
// of the row that lived there, then its delete, which takes the key's index
// entry with it wherever it points by now). An out-of-place engine replays
// nothing and reads a deleted slot's timestamp against the commit marker, so
// there it stays zero: committed.
func (tx *Txn) freeInsertSlot(t *Table, slot uint64) {
	var retireTS uint64
	if tx.e.cfg.Update == InPlace {
		retireTS = tx.tid
	}
	t.heap.Retire(tx.clk, slot, retireTS, 0, false)
}

// writeIntent acquires the algorithm-specific right to write slot,
// attributing the acquisition to the CC phase.
func (tx *Txn) writeIntent(t *Table, key, slot uint64) error {
	prev := tx.pr.To(obs.PhaseCC)
	err := tx.writeIntentCC(t, key, slot)
	tx.pr.To(prev)
	return err
}

func (tx *Txn) writeIntentCC(t *Table, key, slot uint64) error {
	a := tx.access(t, slot, key)
	if a.owned() {
		if a.mode&accDeleted != 0 {
			return ErrNotFound // the transaction sees its own delete
		}
		return nil
	}
	lock, readTS := tx.words(a)
	switch tx.e.cfg.CC.Base() {
	case cc.TwoPL:
		if a.mode&accShared != 0 {
			if !cc.TryUpgrade2PL(lock) {
				return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictUpgrade)
			}
		} else if !cc.TryWriteLock2PL(lock) {
			return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictLockFail)
		}
		a.noteLocked(0, tx.clk.Nanos())
		return tx.liveIntent(t, slot)

	case cc.TO:
		pre, ok := cc.TryLockTO(lock)
		if !ok {
			return tx.ccConflict(t, key, slot, lock.Load(), obs.ConflictLockFail)
		}
		if cc.WTSTO(pre) > tx.tid || readTS.Load() > tx.tid {
			cc.UnlockTOKeep(lock, pre)
			return tx.ccConflict(t, key, slot, pre, obs.ConflictTSOrder)
		}
		a.noteLocked(pre, tx.clk.Nanos())
		return tx.liveIntent(t, slot)

	default: // OCC defers locking to validation
		a.mode |= accIntent
		return nil
	}
}

// bufferOp appends op, carrying data (an update's bytes, an insert's payload),
// to the write set: the log window for in-place engines, DRAM for out-of-place.
func (tx *Txn) bufferOp(op txnOp, data []byte) error {
	if tx.e.cfg.Update == InPlace {
		prev := tx.pr.To(obs.PhaseLogAppend)
		switch op.kind {
		case wal.OpUpdate:
			op.logPos = tx.log.AppendUpdate(tx.clk, op.t.id, op.slot, op.key, op.off, data)
		case wal.OpInsert:
			op.logPos = tx.log.AppendInsert(tx.clk, op.t.id, op.slot, op.key, data)
		default:
			op.logPos = tx.log.AppendDelete(tx.clk, op.t.id, op.slot, op.key)
		}
		tx.pr.To(prev)
		if op.logPos < 0 {
			return ErrTxnTooLarge
		}
	} else if op.kind != wal.OpDelete {
		op.data = append([]byte(nil), data...)
		chargeDRAMCopy(tx.clk, tx.e.sys.Cost(), len(data))
	}
	tx.ops = append(tx.ops, op)
	return nil
}

// updatePendingInsert folds an update into a not-yet-committed insert.
func (tx *Txn) updatePendingInsert(ins *txnOp, off int, data []byte) error {
	if tx.e.cfg.Update == OutOfPlace {
		copy(ins.data[off:off+len(data)], data)
		chargeDRAMCopy(tx.clk, tx.e.sys.Cost(), len(data))
		return nil
	}
	// In-place: append a follow-up update op on the same slot; replay order
	// preserves the final image.
	return tx.bufferOp(txnOp{t: ins.t, kind: wal.OpUpdate, slot: ins.slot, key: ins.key, off: off, n: len(data)}, data)
}

// overlayOwnWrites patches dst (payload range [off, off+n)) with this
// transaction's buffered updates to slot, in the order they were issued.
func (tx *Txn) overlayOwnWrites(t *Table, slot uint64, off, n int, dst []byte) {
	for i := range tx.ops {
		w := &tx.ops[i]
		if w.kind != wal.OpUpdate || w.slot != slot || w.t != t {
			continue
		}
		lo, hi := w.off, w.off+w.n
		if hi <= off || lo >= off+n {
			continue
		}
		data := w.data
		if tx.e.cfg.Update == InPlace {
			op, _ := tx.log.ReadOp(tx.clk, w.logPos)
			data = op.Data
		}
		s, d := 0, lo-off
		if d < 0 {
			s, d = -d, 0
		}
		end := hi
		if end > off+n {
			end = off + n
		}
		copy(dst[d:], data[s:s+(end-(lo+s))])
	}
}

// readPending reads range [off, off+n) of the transaction's own pending insert:
// its payload, then the updates folded into it since.
func (tx *Txn) readPending(ins *txnOp, off, n int, dst []byte) {
	data := ins.data
	if tx.e.cfg.Update == InPlace {
		op, _ := tx.log.ReadOp(tx.clk, ins.logPos)
		data = op.Data
	}
	copy(dst[:n], data[off:off+n])
	tx.overlayOwnWrites(ins.t, ins.slot, off, n, dst)
}

func chargeDRAMCopy(clk *sim.Clock, cost sim.CostModel, n int) {
	lines := (n + 63) / 64
	if lines < 1 {
		lines = 1
	}
	clk.Advance(cost.DRAMFirstLine + uint64(lines-1)*cost.DRAMNextLine)
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
