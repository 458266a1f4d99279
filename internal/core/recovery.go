package core

import (
	"errors"
	"fmt"
	"time"

	"falcon/internal/alloc"
	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
	"falcon/internal/version"
	"falcon/internal/wal"
)

// RecoveryReport counts what recovery did and how long it took, in virtual
// nanoseconds (the simulated machine's time) and host wall time. Where the
// virtual time went is the recovered engine's recovery probe: its four rec-*
// phases in ObsSnapshot partition TotalNanos.
type RecoveryReport struct {
	// TotalNanos is the end-to-end virtual recovery time.
	TotalNanos uint64
	// Wall is host wall-clock time (diagnostic only).
	Wall time.Duration
	// RecordsReplayed counts committed log records applied.
	RecordsReplayed int
	// TuplesScanned counts heap slots visited (index rebuild / version
	// cleanup paths).
	TuplesScanned int
	// VersionsInvalidated counts uncommitted out-of-place versions rolled
	// back.
	VersionsInvalidated int
	// TornRecords counts committed-state log records whose structure was
	// inconsistent (lost lines); they are skipped as uncommitted.
	TornRecords int
	// CorruptRecords counts structurally valid log records rejected by CRC
	// verification.
	CorruptRecords int
	// StaleFreeDropped counts deleted-list entries recovery discarded because
	// they aliased a live (re-inserted) slot — recycling them would clobber a
	// committed tuple.
	StaleFreeDropped int
	// DroppedUnsealed counts group-commit records published into epochs the
	// durable epoch marker never covered: their transactions reached the
	// publish point but not the durable point, so the whole epoch is dropped
	// (per-epoch all-or-nothing). Always zero under persistent cache, where
	// the publish point is itself durable.
	DroppedUnsealed int
}

// Recover reopens an engine from the post-crash durable image of sys. The
// caller passes the same Config the engine was created with (volatile
// choices like the CC algorithm live there); the persistent geometry comes
// from the catalog and is cross-checked.
func Recover(sys *pmem.System, cfg Config) (*Engine, *RecoveryReport, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, nil, err
	}
	clk := sim.NewClock()
	rep := &RecoveryReport{}

	// Recovery reports its virtual time through the same phase machinery as
	// the commit path: a probe of its own, the engine's last, so `falcon
	// recovery -stats` shows the restart breakdown.
	probes := make([]obs.Probe, cfg.Threads+1)
	pr := &probes[cfg.Threads]
	pr.Start(clk)
	pr.To(obs.PhaseRecCatalog)

	img, err := readCatalog(sys.Space, clk)
	if err != nil {
		return nil, nil, err
	}
	if img.threads != cfg.Threads {
		return nil, nil, fmt.Errorf("core: catalog has %d threads, config %d", img.threads, cfg.Threads)
	}
	if img.update != cfg.Update {
		return nil, nil, fmt.Errorf("core: catalog update scheme %v, config %v", img.update, cfg.Update)
	}
	// Another geometry would place, read and reset each window elsewhere.
	if img.window != cfg.Window {
		return nil, nil, fmt.Errorf("core: catalog log window %+v, config %+v", img.window, cfg.Window)
	}

	e := &Engine{
		cfg:    cfg,
		sys:    sys,
		nvm:    sys.Space,
		byName: make(map[string]*Table, len(img.tables)),
		active: cc.NewActiveSet(cfg.Threads),
		resv:   newReservations(),
		probes: probes,
	}
	e.arena, err = alloc.OpenArena(sys.Space, clk, 0)
	if err != nil {
		return nil, nil, err
	}
	widest := 0
	for _, ct := range img.tables {
		widest = max(widest, ct.schema.TupleSize())
	}
	if err := e.initWorkers(widest); err != nil {
		return nil, nil, err
	}
	e.windowBase = img.windowBase
	e.markerBase = img.markerBase
	e.epochBase = img.epochBase

	// Reopen heaps; shadow CC metadata comes back zeroed — the paper's
	// "clear the lock bits" step.
	for _, ct := range img.tables {
		t := &Table{
			e:            e,
			id:           uint8(len(e.tables)),
			name:         ct.name,
			schema:       ct.schema,
			keyCol:       ct.keyCol,
			secondaryCol: ct.secondaryCol,
			capacity:     ct.capacity,
			heapBase:     ct.heapBase,
			priBase:      ct.priBase,
			secBase:      ct.secBase,
			indexKind:    index.Kind(ct.indexKind),
		}
		t.heap, err = heap.Open(e.nvm, clk, ct.heapBase)
		if err != nil {
			return nil, nil, fmt.Errorf("core: table %q heap: %w", ct.name, err)
		}
		if cfg.CC.MultiVersion() {
			// Old versions lived in DRAM and are gone; fresh empty store
			// (§5.2.3: "each thread only needs to create a new empty version
			// queue during recovery").
			t.versions = version.NewStore(t.heap.NSlots(), cfg.Threads)
		}
		if cfg.TupleCacheBytes > 0 {
			e.ensureTupleCache(ct.schema.TupleSize())
		}
		e.addTable(t)
	}

	// Index recovery step 1: under a persistent cache an NVM index reattaches
	// structurally ("instant recovery"), since the crash flush wrote back
	// every index line the cache held. Under ADR the crash dropped them, so
	// the media holds whichever lines happened to reach it; the index is
	// built empty again, like a DRAM index, in the region the catalog names,
	// and filled from the heap below.
	pr.To(obs.PhaseRecIndex)
	adr := sys.Config().Mode == pmem.ADR
	reattach := cfg.Index == IndexNVM && !adr
	for _, t := range e.tables {
		if reattach {
			t.primary, err = e.openIndexOn(e.nvmIndexSpace(), clk, t.priBase, t.indexKind)
			if err != nil {
				return nil, nil, err
			}
			if t.secondaryCol > 0 {
				t.secondary, err = e.openIndexOn(e.nvmIndexSpace(), clk, t.secBase, index.BTree)
				if err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		t.primary, t.priBase, err = e.buildIndex(clk, t.indexKind, t.capacity, t.priBase)
		if err != nil {
			return nil, nil, err
		}
		if t.secondaryCol > 0 {
			t.secondary, t.secBase, err = e.buildIndex(clk, index.BTree, t.capacity, t.secBase)
			if err != nil {
				return nil, nil, err
			}
		}
	}

	var maxTID uint64
	if cfg.Update == InPlace {
		// An index built empty is filled from the post-replay heap image, so
		// replay fixes up only a reattached one.
		pr.To(obs.PhaseRecReplay)
		// Published-record gate: under persistent cache the publish point is
		// physically durable, so every published record replays; under ADR
		// only epochs the durable marker covers were sealed — records beyond
		// it are at most partially durable and the whole epoch drops.
		epochCutoff := ^uint64(0)
		if adr {
			epochCutoff = e.nvm.ReadU64(clk, e.epochBase)
		}
		maxTID, err = e.replayLogs(clk, rep, reattach, epochCutoff)
		if err != nil {
			return nil, nil, err
		}
		if !reattach {
			pr.To(obs.PhaseRecHeapScan)
			if err := e.rebuildIndexes(clk, rep); err != nil {
				return nil, nil, err
			}
		}
	} else {
		// Out-of-place: resolve committedness against the per-thread
		// markers, invalidate uncommitted versions, resurrect uncommitted
		// deletes, and (re)build the index over the newest committed
		// version of every key — one full heap scan, proportional to heap
		// size (§6.5: ZenS's 9.4 s vs Falcon's milliseconds).
		pr.To(obs.PhaseRecHeapScan)
		m, err2 := e.recoverOutOfPlace(clk, rep)
		if err2 != nil {
			return nil, nil, err2
		}
		maxTID = m
	}
	// What recovery stored (replayed records, rolled-back versions, repaired
	// cursors, a rebuilt index) went through the cache. Under ADR the cache
	// is volatile and the windows are reset below: write it all back first,
	// or the next commit in a reused window slot overwrites the only durable
	// copy of a replayed record, and a second crash loses that record's
	// update.
	if adr {
		e.sys.Sync(clk)
	}

	// Restore the TID clock past everything ever issued.
	pr.To(obs.PhaseRecCatalog) // epoch bookkeeping: TID clock, fresh windows
	winBytes := wal.BytesNeeded(e.cfg.Window)
	for t := 0; t < cfg.Threads; t++ {
		if w := wal.MaxTID(e.nvm, clk, e.windowBase+uint64(t)*winBytes, e.cfg.Window); w > maxTID {
			maxTID = w
		}
		if m := e.readMarker(clk, t); m > maxTID {
			maxTID = m
		}
	}
	e.gen.Restore(maxTID)

	// Fresh windows for the new epoch.
	e.windows = make([]*wal.Window, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		e.windows[t] = wal.OpenWindow(e.nvm, e.windowBase+uint64(t)*winBytes, e.cfg.Window).Attach(&e.probes[t])
		e.windows[t].Reset(clk)
	}
	// Virtual clocks restart at zero, so durability epochs restart at 1; a
	// stale marker from the previous incarnation would falsely validate them.
	e.nvm.WriteU64(clk, e.epochBase, 0)
	e.nvm.CLWB(clk, e.epochBase, 8)
	e.nvm.SFence(clk)
	e.initGroupCommit()

	pr.Finish()
	rep.TotalNanos = clk.Nanos()
	rep.Wall = time.Since(start)
	return e, rep, nil
}

func (e *Engine) openIndexOn(space pmem.Space, clk *sim.Clock, off uint64, kind index.Kind) (index.Index, error) {
	if kind == index.Hash {
		return index.OpenHash(space, clk, off)
	}
	return index.OpenBTree(space, clk, off)
}

// replayLogs reads every thread's window, sorts committed records by TID and
// applies them with the tuple-timestamp guard that makes replay idempotent
// and clobber-free (§5.3). epochCutoff gates group-commit records: published
// records tagged with an epoch beyond it never had their epoch sealed, so
// their durability is not guaranteed and the whole epoch is dropped. Legacy
// commit records carry epoch 0 and always replay. fixIndexes is set for a
// reattached index, which is the pre-crash one and is repaired as records
// apply; an index built empty is filled after replay.
func (e *Engine) replayLogs(clk *sim.Clock, rep *RecoveryReport, fixIndexes bool, epochCutoff uint64) (uint64, error) {
	winBytes := wal.BytesNeeded(e.cfg.Window)
	var recs []wal.Record
	for t := 0; t < e.cfg.Threads; t++ {
		r, sr := wal.ReadRecords(e.nvm, clk, e.windowBase+uint64(t)*winBytes, e.cfg.Window)
		rep.TornRecords += sr.Torn
		rep.CorruptRecords += sr.Corrupt
		recs = append(recs, r...)
	}
	wal.SortRecords(recs)

	var maxTID uint64
	for _, rec := range recs {
		if rec.TID > maxTID {
			maxTID = rec.TID
		}
		if rec.Epoch > epochCutoff {
			rep.DroppedUnsealed++
			continue
		}
		rep.RecordsReplayed++
		for _, op := range rec.Ops {
			if int(op.Table) >= len(e.tables) {
				return 0, errors.New("core: log references unknown table")
			}
			t := e.tables[op.Table]
			if op.Type == wal.OpInsert {
				// The allocation cursor is cached state and may have
				// reverted past this slot; repair it (regardless of the
				// timestamp guard below — any durable occupant means the
				// cursor must already be past the slot).
				t.heap.EnsureCursorPast(clk, op.Slot)
			}
			// Guard: a tuple whose durable timestamp is newer than this
			// record was overwritten by a later committed transaction whose
			// record may be gone; replaying would clobber it.
			cur := t.heap.ReadTS(clk, op.Slot)
			if rec.TID < cur {
				continue
			}
			switch op.Type {
			case wal.OpUpdate:
				t.heap.WriteRange(clk, op.Slot, op.Off, op.Data)
				t.heap.WriteTS(clk, op.Slot, rec.TID)
			case wal.OpInsert:
				// Same publish as the runtime: occupied flag last.
				t.heap.Publish(clk, op.Slot, rec.TID, op.Data, &e.scratch[0].img)
				if fixIndexes {
					if err := t.restoreEntries(clk, op.Data, op.Slot, false); err != nil {
						return 0, err
					}
				}
			case wal.OpDelete:
				// A delete whose retire already landed (the slot carries this
				// record's TID and the deleted flag) is not retired twice —
				// its linkage is durable and not idempotent — but a crash
				// between the retire and the index deletes leaves entries
				// naming the dead slot, and the row would read back.
				if cur == rec.TID && t.heap.IsDeleted(clk, op.Slot) {
					if fixIndexes {
						t.dropEntries(clk, op.Key, op.Slot)
					}
					continue
				}
				var secKey uint64
				if t.secondary != nil {
					secKey = t.heap.ReadRangeU64(clk, op.Slot, t.schema.Offset(t.secondaryCol))
				}
				t.heap.Retire(clk, op.Slot, rec.TID, 0, false)
				if fixIndexes {
					t.primary.Delete(clk, op.Key)
					if t.secondary != nil {
						t.secondary.Delete(clk, secKey)
					}
				}
			}
		}
	}
	// Replay can leave live slots on the deleted lists: the OpDelete arm may
	// relink a slot that a later record re-inserts (its timestamp guard reads
	// the durable tuple, which cannot reflect heap writes that were still in
	// the lost cache when the re-inserting record was published), and under
	// ADR the durable lists themselves may be stale. Now that every durable
	// flag is final, drop any entry that aliases a live tuple.
	for _, t := range e.tables {
		rep.StaleFreeDropped += t.heap.ScrubDeletedLists(clk)
	}
	// The fence closes replay. It makes nothing durable: under eADR the
	// replayed stores are durable as they land, and under ADR Recover writes
	// them back before it resets the windows.
	e.nvm.SFence(clk)
	return maxTID, nil
}

// ErrIndexRestore wraps every failure to put a recovered tuple back in an
// index, for instance an index too small for the live tuples of the heap it
// is rebuilt from.
var ErrIndexRestore = errors.New("core: index restore failed")

// restoreEntries puts a recovered tuple, payload in slot, back in its table's
// primary and secondary index.
func (t *Table) restoreEntries(clk *sim.Clock, payload []byte, slot uint64, repoint bool) error {
	if err := t.indexRestore(clk, t.primary, t.schema.GetUint64(payload, t.keyCol), slot, repoint); err != nil {
		return err
	}
	if t.secondary == nil {
		return nil
	}
	return t.indexRestore(clk, t.secondary, t.schema.GetUint64(payload, t.secondaryCol), slot, repoint)
}

// indexRestore puts a recovered tuple back in one of its table's indexes,
// where the entry may exist already: repoint moves an existing entry to slot
// (the reattached index of an out-of-place engine may still name a version
// the scan retired), otherwise it stays (replay is idempotent).
func (t *Table) indexRestore(clk *sim.Clock, idx index.Index, key, slot uint64, repoint bool) error {
	if repoint && idx.Update(clk, key, slot) {
		return nil
	}
	if err := idx.Insert(clk, key, slot); err != nil && !errors.Is(err, index.ErrDuplicate) {
		return fmt.Errorf("%w: table %q: %v key %d (slot %d): %w", ErrIndexRestore, t.name, idx.Kind(), key, slot, err)
	}
	return nil
}

// dropEntries removes key's primary entry, and the secondary entry of the key
// the slot's payload carries, where they still name slot.
func (t *Table) dropEntries(clk *sim.Clock, key, slot uint64) {
	if s, ok := t.primary.Get(clk, key); ok && s == slot {
		t.primary.Delete(clk, key)
	}
	if t.secondary != nil {
		sec := t.heap.ReadRangeU64(clk, slot, t.schema.Offset(t.secondaryCol))
		if s, ok := t.secondary.Get(clk, sec); ok && s == slot {
			t.secondary.Delete(clk, sec)
		}
	}
}

// rebuildIndexes scans every heap and inserts its live tuples in the
// indexes Recover built empty — the slow path the paper attributes to
// DRAM-index engines, and an NVM-index engine's under ADR. Under ADR the
// allocation cursors are lost cached state as well (see heap.ScanAll): the
// scan covers every slot and moves each cursor past the tuples it finds, or
// the next insert would be handed a live tuple's slot.
func (e *Engine) rebuildIndexes(clk *sim.Clock, rep *RecoveryReport) error {
	adr := e.sys.Config().Mode == pmem.ADR
	var err error
	for _, t := range e.tables {
		scan := t.heap.Scan
		if adr {
			scan = t.heap.ScanAll
		}
		scan(clk, func(slot, ts uint64, flags uint8, payload []byte) {
			rep.TuplesScanned++
			if adr {
				t.heap.EnsureCursorPast(clk, slot)
			}
			if err == nil && flags&(heap.FlagDeleted|heap.FlagInvalidated) == 0 {
				err = t.restoreEntries(clk, payload, slot, false)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverOutOfPlace performs the full heap scan of log-free engines:
// commitedness is decided against the writer thread's marker; uncommitted
// versions roll back; the newest committed version of each key wins the
// index entry.
func (e *Engine) recoverOutOfPlace(clk *sim.Clock, rep *RecoveryReport) (uint64, error) {
	markers := make([]uint64, e.cfg.Threads)
	var maxTID uint64
	for t := 0; t < e.cfg.Threads; t++ {
		markers[t] = e.readMarker(clk, t)
		if markers[t] > maxTID {
			maxTID = markers[t]
		}
	}
	// lastCommitted is the newest committed TID. A version an uncommitted
	// delete is rolled back from takes it as its timestamp: committed under
	// these markers and every later one, and newer than any other committed
	// version of its key, as the version a delete targets is.
	lastCommitted := maxTID
	type best struct {
		slot uint64
		ts   uint64
	}
	for _, t := range e.tables {
		t := t
		newest := make(map[uint64]best, t.capacity/2+1)
		// order lists newest's keys as the scan first met them: the restore
		// loop below advances the clock and writes the index, so it must not
		// walk the map (Go randomises that order per run).
		var order, stale []uint64
		// The durable deleted lists are cached state and may be stale on the
		// media after an ADR crash (they could even reference live slots).
		// Discard them and rebuild from the scan's classification below.
		t.heap.ResetDeletedLists(clk)
		// Full-range scan, not cursor-bounded: the allocation cursors are
		// cached state and may have reverted in the crash, hiding committed
		// versions past them. maxOcc tracks the highest occupied slot per
		// owning thread (as slot+1) so the cursors can be repaired after.
		maxOcc := make([]uint64, t.heap.NThreads())
		t.heap.ScanAll(clk, func(slot, ts uint64, flags uint8, payload []byte) {
			rep.TuplesScanned++
			if o := t.heap.Owner(slot); slot+1 > maxOcc[o] {
				maxOcc[o] = slot + 1
			}
			if ts > maxTID {
				maxTID = ts
			}
			// The writer thread is embedded in the TID's low byte (the
			// paper's {timestamp<<8 | thread_id} scheme); deletes stamp the
			// slot with the *deleter's* TID, which may not be the slot
			// owner, so committedness must be judged against the writer's
			// marker. Bulk-loaded tuples carry ts 0 and are always
			// committed.
			writer := int(ts & 0xFF)
			if writer >= len(markers) {
				writer = t.heap.Owner(slot)
			}
			committed := ts <= markers[writer]
			// dropEntry removes the key's index entries that point at this
			// slot: rolling back a version must also roll back an index
			// repoint that already landed (a crash between the index update
			// and the marker, preserved verbatim by an eADR crash flush).
			// An insert's rolled-back version has no older version for the
			// repoint loop below to restore, so a dangling entry would
			// otherwise serve an invalidated slot forever. The secondary
			// entry goes too: one left naming a dead slot outlives the
			// restore loop whenever the key it carries is no live row's.
			dropEntry := func() { t.dropEntries(clk, t.schema.GetUint64(payload, t.keyCol), slot) }
			if !committed {
				switch {
				case flags&heap.FlagDeleted != 0:
					// Uncommitted delete: resurrect the (committed) version
					// underneath and treat it as live below.
					ts = lastCommitted
					t.heap.ClearDeleted(clk, slot, ts)
					rep.VersionsInvalidated++
				case flags&heap.FlagInvalidated != 0:
					// Already rolled back (e.g. by a prior recovery); relink
					// onto the rebuilt list so the slot is recycled.
					dropEntry()
					t.heap.Link(clk, slot, 0)
					return
				default:
					// Uncommitted new version: roll back.
					t.heap.Retire(clk, slot, ts, 0, true)
					rep.VersionsInvalidated++
					dropEntry()
					return
				}
			} else if flags&(heap.FlagDeleted|heap.FlagInvalidated) != 0 {
				// Committed dead version: the crash may have beaten the
				// in-cache index removal; drop a still-pointing entry, then
				// relink the slot onto the rebuilt list.
				dropEntry()
				t.heap.Link(clk, slot, 0)
				return
			}
			key := t.schema.GetUint64(payload, t.keyCol)
			if b, ok := newest[key]; ok {
				if ts > b.ts {
					stale = append(stale, b.slot)
					newest[key] = best{slot, ts}
				} else {
					stale = append(stale, slot)
				}
			} else {
				newest[key] = best{slot, ts}
				order = append(order, key)
			}
		})
		for _, m := range maxOcc {
			if m > 0 {
				t.heap.EnsureCursorPast(clk, m-1)
			}
		}
		// Versions superseded by a newer committed version whose
		// invalidation did not land before the crash.
		for _, slot := range stale {
			t.heap.Retire(clk, slot, t.heap.ReadTS(clk, slot), 0, true)
		}
		for _, key := range order {
			b := newest[key]
			// NVM indexes may hold stale entries; repoint rather than skip.
			if err := t.indexRestore(clk, t.primary, key, b.slot, true); err != nil {
				return 0, err
			}
			if t.secondary != nil {
				scratch := e.scratchFor(0, t.schema.TupleSize())
				t.heap.ReadPayload(clk, b.slot, scratch)
				if err := t.indexRestore(clk, t.secondary, t.schema.GetUint64(scratch, t.secondaryCol), b.slot, true); err != nil {
					return 0, err
				}
			}
		}
	}
	return maxTID, nil
}
