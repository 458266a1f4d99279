package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// ErrRollback is the caller-requested abort: Engine.Run aborts the
// transaction and returns ErrRollback without retrying (TPC-C NewOrder's 1%
// intentional rollbacks use this).
var ErrRollback = errors.New("core: rollback requested")

// Commit finishes the transaction. On ErrConflict the transaction is left
// for the caller to Abort (Engine.Run does this automatically).
//
// Every engine and every mode commits through the same two halves: validate
// on the worker, then commitTail — called from here when workers run free,
// and from the round barrier (detReplay), in canonical order, in group mode.
func (tx *Txn) Commit() error {
	if tx.done {
		return errors.New("core: commit on finished transaction")
	}
	if err := tx.validate(); err != nil {
		return err
	}
	if tx.dt != nil {
		return tx.submit()
	}
	return tx.commitTail()
}

// hasWrites reports whether there is a write set to commit (a read-only
// transaction cannot buffer one).
func (tx *Txn) hasWrites() bool { return len(tx.ops) > 0 }

// validate is the worker-side head of a read-write commit: the redo record
// must have fitted its window, and under OCC the read set must still hold. It
// touches only what the worker owns (in group mode the CC words are the access
// set's private copies; the barrier re-checks against the round's earlier
// winners).
func (tx *Txn) validate() error {
	if !tx.hasWrites() {
		return nil
	}
	if tx.log != nil && tx.log.Full() { // out-of-place engines keep no log
		tx.setAbortCause(obs.AbortLogFull)
		return ErrTxnTooLarge
	}
	if tx.e.cfg.CC.Base() == cc.OCC {
		prev := tx.pr.To(obs.PhaseCC)
		ok := tx.occValidate()
		tx.pr.To(prev)
		if !ok {
			tx.setAbortCause(obs.AbortValidation)
			return ErrConflict
		}
	}
	return nil
}

// commitTail is the shared-state half of Commit: the write set becomes
// durable and visible in the update scheme's own order, then the locks go. An
// error (out-of-place only: no slot for a new version) leaves the transaction
// for the caller to Abort.
func (tx *Txn) commitTail() error {
	wrote := tx.hasWrites()
	if wrote {
		if tx.e.cfg.Update == OutOfPlace {
			if err := tx.commitOutOfPlace(); err != nil {
				return err
			}
		} else {
			tx.commitInPlace()
		}
	}
	tx.pr.To(obs.PhaseCC)
	tx.releaseLocks(wrote)
	tx.finish(true)
	return nil
}

// commitInPlace is the paper's Algorithm 1 after validation: publish old
// versions (MVCC), mark the write set COMMITTED, apply the updates in place,
// then write the touched tuples back through persist. The order is crash-safe
// because the state word precedes every heap store: whatever part of the
// apply a crash cuts off, recovery replays from the record.
//
// With group commit on, the state word is the *publish* point (the record is
// visible, the conflict window closes) and the *durable* point moves to the
// epoch seal's coalesced drain: nothing here fences or flushes on its own
// behalf, persist enlists the tuple ranges on the record's epoch, and an
// unsealed epoch leaves no durable claim (recovery drops published records
// the durable marker does not cover), so a crash takes an epoch all or
// nothing.
func (tx *Txn) commitInPlace() {
	e := tx.e
	tx.publishVersions()

	deferred := e.board != nil // group commit: the epoch seal drains
	tx.pr.To(obs.PhaseLogAppend)
	var epoch uint64
	if deferred {
		epoch = tx.log.Publish(tx.clk)
	} else {
		tx.log.Commit(tx.clk) // Algorithm 1 line 2: the durable point
	}
	tx.pr.To(obs.PhaseHeapWrite)
	tx.applyWriteSet()
	if !deferred {
		e.nvm.SFence(tx.clk) // Algorithm 1 line 7
	}

	tx.pr.To(obs.PhaseFlush)
	ws := &e.scratch[tx.worker]
	ws.spans, ws.flushed, ws.elided = ws.spans[:0], 0, 0
	flushStart := tx.clk.Nanos()
	for i := range tx.ops {
		if tx.firstOn(i) {
			tx.persistSlot(i)
		}
	}
	if deferred {
		tx.log.EnlistData(tx.clk, epoch, ws.spans)
		e.windows[tx.worker].SealExpired(tx.clk) // lazy leader step
	} else {
		tx.pr.DataFlush(flushStart, tx.clk.Nanos(), ws.flushed, ws.elided)
	}
}

// persistSlot writes back the slot ops[i] writes first, once for all its ops:
// their ranges merge where they share or abut a line (a delete's empty range is
// the header line), and ranges on disjoint lines go back under persist's one
// decision, the header line with the first only.
func (tx *Txn) persistSlot(i int) {
	op := &tx.ops[i]
	base := op.t.heap.PayloadAddr(op.slot)
	rs := make([]pmem.Span, 0, 4)
	for j := i; j < len(tx.ops); j++ {
		if p := &tx.ops[j]; p.slot == op.slot && p.t == op.t {
			rs = append(rs, pmem.Span{Off: base + uint64(p.off), N: p.n})
		}
	}
	slices.SortFunc(rs, func(a, b pmem.Span) int { return cmp.Compare(a.Off, b.Off) })
	merged := rs[:1]
	for _, s := range rs[1:] {
		m := &merged[len(merged)-1]
		if last := m.Off + uint64(max(m.N, 1)) - 1; s.Off/pmem.LineSize > last/pmem.LineSize+1 {
			merged = append(merged, s)
		} else if end := s.Off + uint64(s.N); end > m.Off+uint64(m.N) {
			m.N = int(end - m.Off)
		}
	}
	tx.persist(op.t, op.slot, int(merged[0].Off-base), merged[0].N, merged[1:]...)
}

// persist is the one place outside recovery where tuple data is written back:
// it takes a slot the commit has just stored to, its payload range [off, off+n)
// (n == 0: the header alone) and spans past those lines, and owns the decision.
//
// Which: FlushNone relies on the persistent cache and issues nothing;
// FlushAll writes every range back; FlushSelective (§4.4, Algorithm 1 lines
// 8-11) skips tuples tracked hot, one hot-set probe per call — safe only where
// a redo record can re-apply the skipped tuple, so an out-of-place engine,
// which has none, treats it as FlushAll.
//
// When: at once with clwb, or — under group commit — as spans the caller
// enlists on the record's epoch, where the seal batches adjacent lines into
// flush trains. Hot-set bookkeeping runs here either way, so elision does not
// depend on when the flush happens.
//
// An in-place commit calls it from its flush phase; an out-of-place commit
// from the middle of its heap-write phase, which persist leaves and restores.
func (tx *Txn) persist(t *Table, slot uint64, off, n int, more ...pmem.Span) {
	e := tx.e
	if e.cfg.Flush == FlushNone {
		return
	}
	ws := &e.scratch[tx.worker]
	if e.cfg.Update == OutOfPlace {
		prev := tx.pr.To(obs.PhaseFlush)
		defer tx.pr.To(prev)
	} else if e.cfg.Flush == FlushSelective && e.hot[tx.worker].probe(tx.clk, t.id, slot) {
		ws.elided++
		return // hot tuples are never manually flushed
	}
	if e.board != nil {
		ws.spans = append(t.heap.FlushSpans(slot, off, n, ws.spans), more...)
		return
	}
	lines := t.heap.CLWBSlot(tx.clk, slot, off, n)
	for _, s := range more {
		e.nvm.CLWB(tx.clk, s.Off, s.N)
		lines += s.Lines()
	}
	ws.flushed += uint64(lines)
}

// applyWriteSet applies the op list to the tuple heap in the order it was
// issued — log order, so later ops override earlier ones — and then stamps one
// durable writer timestamp per slot whose first op is an update (an inserted
// slot got its TID from the publish), in the order the slots were first
// applied to. That is not the order their locks were taken in
// (ReadForUpdate(A), ReadForUpdate(B), Update(B), Update(A) stamps B first),
// and it must not become it: the order decides which header line the simulated
// cache sees first, so every virtual-time golden hangs on it
// (TestWriteTSInFirstApplyOrder, TestVirtualGolden).
func (tx *Txn) applyWriteSet() {
	for i := range tx.ops {
		op := &tx.ops[i]
		switch op.kind {
		case wal.OpInsert:
			tx.applyInsert(op)
		case wal.OpUpdate:
			rec, _ := tx.log.ReadOp(tx.clk, op.logPos)
			op.t.heap.WriteRange(tx.clk, op.slot, op.off, rec.Data)
		case wal.OpDelete:
			tx.applyDelete(op)
		}
		tx.pr.LogicalBytes(uint64(op.t.id), uint64(op.n)) // a delete's n is 0
		tx.tstat(op.t).Writes++
	}
	for i := range tx.ops {
		if op := &tx.ops[i]; op.kind == wal.OpUpdate && tx.firstOn(i) {
			op.t.heap.WriteTS(tx.clk, op.slot, tx.tid)
		}
	}
}

// publishTuple fills a slot no reader can reach yet: heap.Publish, with the
// line image in the worker's scratch.
func (tx *Txn) publishTuple(t *Table, slot uint64, payload []byte) {
	t.heap.Publish(tx.clk, slot, tx.tid, payload, &tx.e.scratch[tx.worker].img)
}

// stampWord initializes a fresh slot's shadow word so readers see this
// transaction as its writer. It must precede the index store that publishes
// the slot: once reachable, concurrent readers may lock it, and a blind store
// would wipe their lock state.
func (tx *Txn) stampWord(t *Table, slot uint64) {
	lock, _ := t.heap.Meta(slot)
	lock.Store(tx.e.wordOf(tx.tid))
}

func (tx *Txn) applyInsert(ins *txnOp) {
	t := ins.t
	op, _ := tx.log.ReadOp(tx.clk, ins.logPos)
	payload := op.Data
	tx.publishTuple(t, ins.slot, payload)
	tx.stampWord(t, ins.slot)
	prev := tx.pr.To(obs.PhaseIndexUpdate)
	t.indexInsert(tx.clk, t.primary, ins.key, ins.slot)
	if t.secondary != nil {
		t.indexInsert(tx.clk, t.secondary, t.schema.GetUint64(payload, t.secondaryCol), ins.slot)
	}
	tx.pr.To(prev)
	tx.releaseKey(t, ins.key)
	tx.e.tcPut(tx.clk, tx.worker, t.id, ins.key, payload)
}

// indexInsert publishes a committed tuple in one of its table's indexes. It
// runs after the commit point, so it has no way to fail: the key is unique
// (the reservation is held; a secondary key by the table's contract) and the
// index is built never to fill before the heap (Config.IndexKeys). An error
// is therefore a bug, and dropping it would leave a committed row that no
// lookup finds, so it panics. The one duplicate that is no bug is the stale
// entry of a key whose delete an ADR crash lost (Engine.validateHits): it is
// repointed, as recovery repoints moved keys.
func (t *Table) indexInsert(clk *sim.Clock, idx index.Index, key, slot uint64) {
	err := idx.Insert(clk, key, slot)
	if errors.Is(err, index.ErrDuplicate) && t.e.validateHits && idx.Update(clk, key, slot) {
		return
	}
	if err != nil {
		panic(fmt.Sprintf("core: table %q: index insert of committed key %d (slot %d): %v", t.name, key, slot, err))
	}
}

func (tx *Txn) applyDelete(w *txnOp) {
	t := w.t
	// The durable timestamp is the deleting TID (replay guard); the reclaim
	// horizon is a fresh TID so in-flight readers that resolved this slot
	// drain before it is recycled.
	t.heap.Retire(tx.clk, w.slot, tx.tid, tx.e.gen.Next(tx.worker), false)
	prev := tx.pr.To(obs.PhaseIndexUpdate)
	t.primary.Delete(tx.clk, w.key)
	if t.secondary != nil {
		t.secondary.Delete(tx.clk, w.secKey)
	}
	tx.pr.To(prev)
	tx.e.tcInvalidate(tx.clk, t.id, w.key)
}

// publishVersions copies the pre-images of updated/deleted tuples into the
// DRAM version heap before they are overwritten (in-place MVCC, §5.2.3).
func (tx *Txn) publishVersions() {
	if !tx.e.cfg.CC.MultiVersion() {
		return
	}
	prev := tx.pr.To(obs.PhaseHeapWrite)
	defer tx.pr.To(prev)
	for i := range tx.ops {
		w := &tx.ops[i]
		// One version per written slot, and none for a slot this transaction
		// inserted (its insert is the slot's first op): that slot has no
		// committed image, and a version made of its previous occupant's bytes
		// would answer an older snapshot that must see no row.
		if w.kind == wal.OpInsert || !tx.firstOn(i) {
			continue
		}
		lock, _ := w.t.heap.Meta(w.slot)
		beginTS := tx.e.wtsOf(lock.Load())
		scratch := tx.e.scratchFor(tx.worker, w.t.schema.TupleSize())
		w.t.heap.ReadPayload(tx.clk, w.slot, scratch)
		w.t.versions.Publish(tx.clk, tx.worker, w.slot, beginTS, tx.tid, scratch)
		tx.tstat(w.t).Versions++
	}
}

// occValidate locks the write set and checks that every read version is
// unchanged (Silo-style; no-wait on conflicts). The locks land in the access
// set like any other, so the common release and abort paths apply.
func (tx *Txn) occValidate() bool {
	for i := range tx.acc {
		a := &tx.acc[i]
		if a.mode&accIntent == 0 {
			continue
		}
		lock, _ := tx.words(a)
		pre, ok := cc.TryLockTO(lock)
		if !ok {
			tx.noteConflict(a.t, a.key, a.slot, lock.Load(), obs.ConflictValidation)
			return false
		}
		a.noteLocked(pre, tx.clk.Nanos())
		if liveErr(a.t, tx.clk, a.slot) != nil {
			// Superseded or deleted while we ran.
			tx.noteConflict(a.t, a.key, a.slot, pre, obs.ConflictValidation)
			return false
		}
	}
	for i := range tx.acc {
		a := &tx.acc[i]
		if a.mode&accRead == 0 {
			continue
		}
		lock, _ := tx.words(a)
		cur := lock.Load()
		if cur == a.word {
			continue
		}
		// Changed: acceptable only if the lock is ours and the version
		// matches what we read.
		if cc.Locked(cur) && cc.WTSTO(cur) == cc.WTSTO(a.word) && a.mode&accExcl != 0 {
			continue
		}
		tx.noteConflict(a.t, a.key, a.slot, cur, obs.ConflictValidation)
		return false
	}
	return true
}

// releaseLocks drops every lock the transaction holds. A committed write
// installs the new writer TID; everything else — shared locks, and exclusive
// ones on the read-only, empty and abort paths — leaves the writer timestamp
// as it was. Locks live where they were taken (words: the entry's private copy
// in group mode, which dies with the attempt), but the new writer timestamp
// must land on the LIVE word so that later transactions observe the commit; in
// group mode that word was never locked and the store is all there is to do.
func (tx *Txn) releaseLocks(committed bool) {
	twoPL := tx.e.cfg.CC.Base() == cc.TwoPL
	for i := range tx.acc {
		a := &tx.acc[i]
		switch {
		case a.mode&accExcl != 0 && committed:
			live, _ := a.t.heap.Meta(a.slot)
			if twoPL {
				cc.WriteUnlock2PL(live, tx.tid)
			} else {
				cc.UnlockTO(live, tx.tid)
			}
		case a.mode&accExcl != 0:
			lock, _ := tx.words(a)
			if twoPL {
				cc.WriteUnlock2PLKeepTS(lock)
			} else {
				cc.UnlockTOKeep(lock, a.pre)
			}
		case a.mode&accShared != 0:
			lock, _ := tx.words(a)
			cc.ReadUnlock2PL(lock)
		}
		a.mode &^= accExcl | accShared
	}
}

// Abort rolls back: locks release with their prior versions, reserved keys
// free, pre-allocated insert slots recycle, and the log record is discarded.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.pr.To(obs.PhaseAbort)
	if tx.log != nil {
		tx.log.Abort(tx.clk)
	}
	tx.releaseLocks(false)
	// The pre-allocated slots were never published; recycle them at once.
	for i := range tx.ops {
		if ins := &tx.ops[i]; ins.kind == wal.OpInsert {
			tx.releaseKey(ins.t, ins.key)
			tx.freeInsertSlot(ins.t, ins.slot)
		}
	}
	tx.clk.Advance(tx.e.sys.Cost().AbortOverhead)
	// A bare Abort with no recorded failure is a voluntary rollback.
	if !tx.causeSet {
		tx.cause = obs.AbortUserRollback
	}
	tx.finish(false)
}

func (tx *Txn) finish(committed bool) {
	ws := &tx.e.scratch[tx.worker]
	ws.acc, ws.ops = tx.acc, tx.ops // the next attempt starts from their capacity
	tx.e.active.Clear(tx.worker)
	// Version-heap GC piggybacks on worker threads (§5.4: no dedicated
	// recycling threads).
	if tx.e.cfg.CC.MultiVersion() && committed {
		tx.pr.To(obs.PhaseHeapWrite)
		min := tx.e.minActive()
		for _, t := range tx.e.tables {
			if t.versions != nil {
				t.versions.MaybeGC(tx.clk, tx.worker, min)
			}
		}
	}
	tx.pr.End(committed, tx.cause)
	tx.done = true
}

// Run executes fn inside a transaction on worker's thread, retrying on
// conflicts. fn may return ErrRollback to abort without retry.
func (e *Engine) Run(worker int, fn func(*Txn) error) error {
	return e.run(worker, false, nil, fn)
}

// RunRO executes fn inside a read-only transaction, retrying on conflicts.
func (e *Engine) RunRO(worker int, fn func(*Txn) error) error {
	return e.run(worker, true, nil, fn)
}

// RunCancelable is Run with a cancellation hook: canceled is polled before
// each attempt and at every operation entry point inside the transaction; a
// true return aborts the attempt (counted under the "canceled" abort reason)
// and RunCancelable returns ErrCanceled without retrying. The serving layer
// uses this to propagate per-request deadlines into transaction execution.
func (e *Engine) RunCancelable(worker int, canceled func() bool, fn func(*Txn) error) error {
	return e.run(worker, false, canceled, fn)
}

// RunROCancelable is RunRO with a cancellation hook (see RunCancelable).
func (e *Engine) RunROCancelable(worker int, canceled func() bool, fn func(*Txn) error) error {
	return e.run(worker, true, canceled, fn)
}

func (e *Engine) run(worker int, ro bool, canceled func() bool, fn func(*Txn) error) error {
	for {
		if canceled != nil && canceled() {
			return ErrCanceled
		}
		var tx *Txn
		if ro {
			tx = e.BeginRO(worker)
		} else {
			tx = e.Begin(worker)
		}
		tx.cancel = canceled
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			return nil
		}
		tx.classifyAbort(err)
		tx.Abort()
		if errors.Is(err, ErrConflict) {
			if d := e.det; d != nil {
				// A conflict detected during execution (against round-frozen
				// state) waits out the current round with an empty attempt;
				// one detected at the barrier already consumed the round, so
				// retry immediately. Retried attempts draw strictly larger
				// TIDs, so a stale frozen timestamp eventually clears.
				if tx.dt == nil || !tx.dt.submitted {
					d.group.Submit(&sim.Attempt{Order: tx.tid})
				}
			} else {
				runtime.Gosched() // break retry lockstep between workers
			}
			continue
		}
		return err
	}
}

// Scan iterates tuples with primary key >= from in key order, invoking fn
// with the key and a scratch payload (valid only during the call), until fn
// returns false or limit tuples have been visited (limit <= 0 means no
// limit). The primary index must be a btree.
func (tx *Txn) Scan(t *Table, from uint64, limit int, fn func(key uint64, payload []byte) bool) (int, error) {
	return tx.scanIndex(t, t.primary, from, limit, fn)
}

// ScanSecondary iterates via the secondary index.
func (tx *Txn) ScanSecondary(t *Table, from uint64, limit int, fn func(secKey uint64, payload []byte) bool) (int, error) {
	if t.secondary == nil {
		return 0, index.ErrUnordered
	}
	return tx.scanIndex(t, t.secondary, from, limit, fn)
}

func (tx *Txn) scanIndex(t *Table, idx index.Index, from uint64, limit int, fn func(uint64, []byte) bool) (int, error) {
	// A buffer of the scan's own: fn may issue reads that use the worker
	// scratch. The worker's scan buffer is taken while the scan runs, so a
	// scan that fn starts allocates one for itself.
	tx.tstat(t).IndexProbes++
	ws := &tx.e.scratch[tx.worker]
	scratch := ws.scan
	ws.scan = nil
	if n := t.schema.TupleSize(); cap(scratch) < n {
		scratch = make([]byte, n)
	} else {
		scratch = scratch[:n]
	}
	defer func() { ws.scan = scratch }()
	visited := 0
	var scanErr error
	err := idx.Scan(tx.clk, from, func(key, slot uint64) bool {
		if limit > 0 && visited >= limit {
			return false
		}
		if err := tx.readSlot(t, key, slot, scratch); err != nil {
			if errors.Is(err, ErrNotFound) {
				return true // concurrently deleted; skip
			}
			scanErr = err
			return false
		}
		visited++
		return fn(key, scratch)
	})
	if err != nil {
		return visited, err
	}
	tx.detRecordScan(t)
	return visited, scanErr
}

// readSlot performs the CC read of an already-resolved slot (scan path).
func (tx *Txn) readSlot(t *Table, key, slot uint64, dst []byte) error {
	if err := tx.enter(t, key, false); err != nil {
		return err
	}
	tx.tstat(t).Reads++
	return tx.readResolved(t, key, slot, 0, t.schema.TupleSize(), dst)
}
