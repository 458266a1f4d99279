package core

import (
	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/obs"
	"falcon/internal/obs/contend"
)

// NewObservatory builds a contention observatory shaped for this engine: one
// recorder shard per worker, the CC algorithm label, the table catalog, and
// the flush-attribution address map (each table's heap plus its NVM index
// regions under the table's name, every thread's log window under "(log)").
// Arm it with SetContend; its report lands in ObsSnapshot while armed.
func (e *Engine) NewObservatory() *contend.Observatory {
	names := make([]string, len(e.tables))
	for i, t := range e.tables {
		names[i] = t.name
	}
	o := contend.New(contend.Config{
		Workers: e.cfg.Threads,
		Algo:    e.cfg.CC.String(),
		Tables:  names,
		Banks:   e.sys.XPB.Banks(),
	})
	for _, t := range e.tables {
		hcfg := heap.Config{SlotSize: t.schema.TupleSize(), NSlots: t.heap.NSlots(), NThreads: e.cfg.Threads}
		o.AddRange(t.name, t.heapBase, t.heapBase+heap.BytesNeeded(hcfg))
		if e.cfg.Index == IndexNVM {
			o.AddRange(t.name, t.priBase, t.priBase+t.primary.Bytes())
			if t.secondary != nil {
				o.AddRange(t.name, t.secBase, t.secBase+t.secondary.Bytes())
			}
		}
	}
	base, size := e.LogWindowRange()
	o.AddRange("(log)", base, base+size)
	return o
}

// SetContend arms the contention observatory: worker w's conflict events
// route to o.Worker(w), the WAL windows report flush lines and group-commit
// waits, and the pmem system reports writeback and eviction traffic. Pass nil
// to disarm. Must be called while no transactions are in flight (between
// benchmark phases) — the same quiescence contract as SetTracer.
func (e *Engine) SetContend(o *contend.Observatory) {
	e.contendObs = o
	if o == nil {
		e.contendW = nil
		for _, w := range e.windows {
			w.SetContend(nil)
		}
		e.sys.SetContend(nil)
		return
	}
	e.contendW = make([]*contend.Worker, e.cfg.Threads)
	for i := range e.contendW {
		cw := o.Worker(i)
		e.contendW[i] = cw
		e.windows[i].SetContend(cw)
		if e.tracerW != nil {
			cw.SetTracer(e.tracerW[i])
		}
	}
	e.sys.SetContend(o.PmemContend)
}

// Contend returns the armed observatory, or nil.
func (e *Engine) Contend() *contend.Observatory { return e.contendObs }

// noteConflict reports one CC conflict to the armed observatory shard. word
// is the shadow word observed at the failure site; the writer TID it encodes
// attributes the conflict to the holding worker (a zero TID is the bulk-load
// stamp — no holder).
func (tx *Txn) noteConflict(t *Table, key, slot, word uint64, kind obs.ConflictKind) {
	if tx.cw == nil {
		return
	}
	holder := -1
	if h := cc.HolderTID(tx.e.cfg.CC, word); h != 0 {
		holder = cc.TIDWorker(h)
	}
	tx.cw.Conflict(int(t.id), key, slot, kind, holder, 0, tx.clk.Nanos())
}

// ccConflict is noteConflict returning ErrConflict, for failure-site returns.
func (tx *Txn) ccConflict(t *Table, key, slot, word uint64, kind obs.ConflictKind) error {
	tx.noteConflict(t, key, slot, word, kind)
	return ErrConflict
}
