package core

import (
	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/obs"
	"falcon/internal/pmem"
)

// NewObservatory builds a contention observatory shaped for this engine: one
// recorder shard per worker, the CC algorithm label, the table catalog, and
// the flush-attribution address map (each table's heap plus its NVM index
// regions under the table's name, every thread's log window under "(log)").
// Arm it with Arm; its report lands in ObsSnapshot while armed.
func (e *Engine) NewObservatory() *obs.Observatory {
	names := make([]string, len(e.tables))
	for i, t := range e.tables {
		names[i] = t.name
	}
	o := obs.NewObservatory(obs.ObservatoryConfig{
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

// Arm routes every worker's probe to its shard of tr and of o (either may be
// nil) and the memory system's write-backs to the probe of the worker whose
// clock caused them; Arm(nil, nil) disarms and takes the hook off the memory
// system again. Must be called while no transaction is in flight (between
// benchmark phases) — the same quiescence contract as ResetCounters.
func (e *Engine) Arm(tr *obs.Tracer, o *obs.Observatory) {
	e.tracer, e.observatory = tr, o
	workers := e.probes[:e.cfg.Threads]
	for i := range workers {
		workers[i].Arm(tr, o, i)
	}
	if tr == nil && o == nil {
		e.sys.SetHook(nil)
		return
	}
	e.sys.SetHook(func(shard uint64, kind pmem.FlushKind, addr, start, end uint64) {
		if shard < uint64(len(workers)) {
			workers[shard].Flush(kind, addr, start, end)
		}
	})
}

// Tracer and Contend return the armed tracer and observatory, or nil.
func (e *Engine) Tracer() *obs.Tracer       { return e.tracer }
func (e *Engine) Contend() *obs.Observatory { return e.observatory }

// holderOf names the worker whose TID the shadow word carries, -1 when it
// carries none (a zero TID is the bulk-load stamp).
func (e *Engine) holderOf(word uint64) int {
	if h := cc.HolderTID(e.cfg.CC, word); h != 0 {
		return cc.TIDWorker(h)
	}
	return -1
}

// noteConflict reports one CC conflict. word is the shadow word observed at
// the failure site; the writer TID it encodes attributes the conflict to the
// holding worker.
func (tx *Txn) noteConflict(t *Table, key, slot, word uint64, kind obs.ConflictKind) {
	tx.pr.Conflict(int(t.id), key, slot, kind, tx.e.holderOf(word), tx.clk.Nanos())
}

// ccConflict is noteConflict returning ErrConflict, for failure-site returns.
func (tx *Txn) ccConflict(t *Table, key, slot, word uint64, kind obs.ConflictKind) error {
	tx.noteConflict(t, key, slot, word, kind)
	return ErrConflict
}
