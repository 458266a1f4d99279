package core

import (
	"errors"
	"fmt"
	"slices"

	"falcon/internal/heap"
	"falcon/internal/obs"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// outpGroup is one logical tuple of an out-of-place write set: the buffered
// updates to it, in order, or its delete.
type outpGroup struct {
	t                *Table
	oldSlot, newSlot uint64
	key              uint64
	del              bool
	ops              []*txnOp
	// oldSec/newSec track the secondary key across the version move; a delete
	// carries the key captured at buffering time in oldSec.
	oldSec, newSec uint64
}

// commitOutOfPlace is the log-free commit of the out-of-place engines (Outp
// and ZenS, §2.1.2), after validation: each update materializes a complete
// new tuple version in a freshly allocated heap slot, the per-thread commit
// marker makes the transaction durable atomically, and the index is repointed
// afterwards.
//
// Durability protocol (what recovery relies on):
//
//  1. New versions (full payload + writer TID + occupied flag) are written
//     and written back through persist. Deletes durably set the deleted flag +
//     TID on the old slot.
//  2. sfence, then the thread's commit marker is set to the TID and flushed.
//     A version is committed iff its TID <= its writer thread's marker.
//  3. Indexes are repointed and old versions invalidated. These steps are
//     idempotently redone by the recovery heap scan, which is why
//     out-of-place recovery time is proportional to heap size (§5.4, §6.5).
//
// An error (no slot for a new version) comes before the marker: nothing is
// committed and the caller aborts.
func (tx *Txn) commitOutOfPlace() error {
	e := tx.e

	// One new version per logical tuple, in the order the tuples were first
	// written.
	groups := make([]outpGroup, 0, len(tx.ops))
	for i := range tx.ops {
		w := &tx.ops[i]
		if w.kind == wal.OpInsert {
			continue
		}
		gi := slices.IndexFunc(groups, func(g outpGroup) bool { return g.oldSlot == w.slot && g.t == w.t })
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, outpGroup{t: w.t, oldSlot: w.slot, key: w.key})
		}
		g := &groups[gi]
		if w.kind == wal.OpDelete {
			g.del, g.oldSec = true, w.secKey
		} else {
			g.ops = append(g.ops, w)
		}
	}

	// Phase 1: materialize new versions / durable delete records.
	tx.pr.To(obs.PhaseHeapWrite)
	for gi := range groups {
		g := &groups[gi]
		size := g.t.schema.TupleSize()
		tx.tstat(g.t).Writes++
		if g.del {
			// The deleted flag + TID on the old slot is the durable delete
			// record; linking for recycling waits until after the marker so
			// an uncommitted delete can be rolled back by recovery.
			g.t.heap.MarkDeleted(tx.clk, g.oldSlot, tx.tid)
			tx.persist(g.t, g.oldSlot, 0, 0)
			continue
		}
		scratch := e.scratchFor(tx.worker, size)
		g.t.heap.ReadPayload(tx.clk, g.oldSlot, scratch) // full-tuple copy (§6.2.2: write amplification of out-of-place)
		if e.cfg.OwnershipCopy && g.t.heap.Owner(g.oldSlot) != tx.worker {
			// Zen does not let a thread modify another thread's tuple
			// directly: it copies the tuple into its own pages and
			// invalidates the original first — extra reads that hurt under
			// contended (Zipfian) workloads (§6.2.3).
			g.t.heap.ReadPayload(tx.clk, g.oldSlot, scratch)
		}
		if g.t.secondary != nil {
			g.oldSec = g.t.schema.GetUint64(scratch, g.t.secondaryCol)
		}
		for _, w := range g.ops {
			copy(scratch[w.off:w.off+w.n], w.data)
			tx.pr.LogicalBytes(uint64(g.t.id), uint64(w.n))
		}
		if g.t.secondary != nil {
			g.newSec = g.t.schema.GetUint64(scratch, g.t.secondaryCol)
		}
		slot, err := g.t.heap.Alloc(tx.clk, tx.worker, e.active.Min())
		if err != nil {
			// Roll back versions already materialized in this phase so the
			// slots are not leaked.
			for _, rb := range groups[:gi] {
				if !rb.del {
					rb.t.heap.Retire(tx.clk, rb.newSlot, 0, 0, true)
				}
			}
			if errors.Is(err, heap.ErrReclaimPending) {
				return ErrConflict // backpressure: retry once horizons advance
			}
			return fmt.Errorf("%w: %s (out-of-place version)", ErrTableFull, g.t.name)
		}
		g.newSlot = slot
		tx.publishTuple(g.t, slot, scratch)
		tx.persist(g.t, slot, 0, size)
		e.tcache.put(tx.clk, g.t.id, g.key, g.newSlot, scratch)
	}
	// Inserts: fresh slots, same durability rules.
	for i := range tx.ops {
		ins := &tx.ops[i]
		if ins.kind != wal.OpInsert {
			continue
		}
		tx.tstat(ins.t).Writes++
		tx.pr.LogicalBytes(uint64(ins.t.id), uint64(ins.n))
		tx.publishTuple(ins.t, ins.slot, ins.data)
		tx.persist(ins.t, ins.slot, 0, ins.n)
	}

	// Phase 2: the commit marker — the out-of-place engines' durable point,
	// accounted as log work (it plays the commit record's role).
	tx.pr.To(obs.PhaseLogAppend)
	e.nvm.SFence(tx.clk)
	tx.writeMarker()

	// Phase 3: index repointing, version chains, invalidation.
	tx.pr.To(obs.PhaseIndexUpdate)
	for gi := range groups {
		g := &groups[gi]
		if g.del {
			tx.primary(g.t).Delete(tx.clk, g.key)
			if g.t.secondary != nil {
				tx.secondary(g.t).Delete(tx.clk, g.oldSec)
			}
			e.tcache.invalidate(tx.clk, g.t.id, g.key)
			tx.pr.To(obs.PhaseHeapWrite)
			g.t.heap.Link(tx.clk, g.oldSlot, e.gen.Next(tx.worker))
			tx.pr.To(obs.PhaseIndexUpdate)
			continue
		}
		lock, _ := g.t.heap.Meta(g.oldSlot)
		beginTS := e.wtsOf(lock.Load())
		tx.stampWord(g.t, g.newSlot)
		if g.t.versions != nil {
			tx.pr.To(obs.PhaseHeapWrite)
			g.t.versions.PublishRef(tx.clk, tx.worker, g.newSlot, beginTS, tx.tid, g.oldSlot)
			tx.pr.To(obs.PhaseIndexUpdate)
			tx.tstat(g.t).Versions++
		}
		if g.t.secondary != nil {
			// The tuple moved; the secondary must follow. A changed
			// secondary key additionally relocates the entry. The secondary
			// goes first: writers resolve through the primary, and the new
			// slot is unlocked, so once the primary names it the next writer
			// can move the tuple on and repoint both indexes. Were the
			// secondary still to come then, this store would put it back on a
			// slot that writer has retired.
			if g.oldSec == g.newSec {
				tx.secondary(g.t).Update(tx.clk, g.newSec, g.newSlot)
			} else {
				tx.secondary(g.t).Delete(tx.clk, g.oldSec)
				g.t.indexInsert(tx.clk, tx.secondary(g.t), g.newSec, g.newSlot)
			}
		}
		tx.primary(g.t).Update(tx.clk, g.key, g.newSlot)
		tx.pr.To(obs.PhaseHeapWrite)
		g.t.heap.Retire(tx.clk, g.oldSlot, tx.tid, e.gen.Next(tx.worker), true)
		tx.pr.To(obs.PhaseIndexUpdate)
	}
	for i := range tx.ops {
		ins := &tx.ops[i]
		if ins.kind != wal.OpInsert {
			continue
		}
		tx.stampWord(ins.t, ins.slot)
		if ins.t.secondary != nil { // before the primary, as above
			ins.t.indexInsert(tx.clk, tx.secondary(ins.t), ins.t.schema.GetUint64(ins.data, ins.t.secondaryCol), ins.slot)
		}
		ins.t.indexInsert(tx.clk, tx.primary(ins.t), ins.key, ins.slot)
		e.resv.release(tx.clk, ins.t.id, ins.key)
		e.tcache.put(tx.clk, ins.t.id, ins.key, ins.slot, ins.data)
	}
	return nil
}

// writeMarker durably records this thread's newest committed TID.
func (tx *Txn) writeMarker() {
	off := tx.e.markerBase + 64*uint64(tx.worker)
	tx.e.nvm.WriteU64(tx.clk, off, tx.tid)
	if tx.e.cfg.Flush != FlushNone {
		tx.e.nvm.CLWB(tx.clk, off, 8)
	}
	tx.e.nvm.SFence(tx.clk)
}

// readMarker returns thread t's newest committed TID from the durable image.
func (e *Engine) readMarker(clk *sim.Clock, t int) uint64 {
	return e.nvm.ReadU64(clk, e.markerBase+64*uint64(t))
}
