package core

import (
	"falcon/internal/cc"
	"falcon/internal/obs"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// Deterministic worker-parallel mode (the sim.Group scheduler, see
// internal/sim/group.go for the round model).
//
// In normal (free-running) mode, multi-worker cells are only repeatable under
// a fixed host schedule: workers race on the shared simulated cache, the CC
// shadow words, the tuple cache, and the TID generator, so virtual results
// depend on goroutine interleaving. Group mode removes every such race by
// construction:
//
//   - TIDs derive from virtual time: tid = (base + clk.Nanos()) << 8 | worker,
//     with a per-worker monotonic bump. Canonical merge order (ascending tid)
//     is therefore (virtual time, worker id) order.
//   - During a round, every access a transaction makes against shared state is
//     a pure read of round-frozen state. CC lock/read-timestamp words are
//     copied on first touch into the slot's entry in the attempt's access set
//     (Txn.access, Txn.words); all six CC algorithms run unchanged against the
//     copies. Live words are never mutated mid-round.
//   - The commit is split where Commit itself splits it: validate (log-capacity
//     check, OCC validation over the copies) runs worker-side; commitTail —
//     version publish, log commit, heap apply, index updates, flushes, lock
//     release, the same function free-running workers call — runs inside the
//     round barrier, serially, in canonical order (detReplay).
//   - The barrier revalidates each attempt against what earlier-ordered
//     winners of the same round committed, using virtual-time windows. Every
//     read that went through concurrency control is recorded with its virtual
//     time — ReadForUpdate's and a read under the attempt's own write lock
//     included. Under the lock-based algorithms a read at virtual time v
//     conflicts with an earlier winner's write to the same slot committed at
//     time c iff v > c (the read should have seen it). Under the OCC family it
//     conflicts whatever the two times are: the read saw the round-frozen
//     version, the attempt validates after the winner by construction, and an
//     optimistic read holds only if its version is still current then. A
//     write intent taken at v conflicts iff v < lastC (concurrent writers,
//     no-wait) or the slot changed structurally (delete / out-of-place
//     supersede); an insert conflicts on a duplicate key; a scan conflicts
//     with any structural change to its table committed before the scan's
//     virtual time. Conflicts abort exactly as in free-running mode (the
//     abort is charged, the transaction retries next round), preserving the
//     abort-retry cost model.
//
// Group mode is a *different simulated machine* than free-running mode
// (partitioned timing caches, round-frozen conflict windows), so its virtual
// numbers differ from legacy runs; within group mode they are byte-identical
// for any GOMAXPROCS and any host schedule.

// detSlot identifies a heap slot across tables.
type detSlot struct {
	table uint8
	slot  uint64
}

// detKey identifies a primary key across tables.
type detKey struct {
	table uint8
	key   uint64
}

// detWin is the virtual-time window of commits an earlier-ordered winner
// applied to one slot during the current round.
type detWin struct {
	firstC, lastC uint64
	// structural marks deletes and out-of-place supersedes: the slot was
	// retired, so any later write intent on it must abort (its apply would
	// target a recycled slot).
	structural bool
}

// detState is the engine's group-mode state. It is created quiescently by
// EnterGroup; during rounds workers only read it (min, tc routing), and the
// round maps are touched exclusively inside the barrier.
type detState struct {
	group   *sim.Group
	workers int
	// min is the frozen reclaim horizon used by exec-time heap allocation in
	// place of ActiveSet.Min (whose value depends on the host schedule
	// mid-round). It is a lower bound on every TID active in the current
	// round, refreshed at each barrier from the round's smallest submitted
	// TID (per-worker TIDs are strictly monotone, so the next round's minimum
	// can only be larger).
	min uint64
	// base offsets virtual-time TID sequences so they stay monotone across
	// clock resets; lastSeq enforces per-worker strict monotonicity.
	base    uint64
	lastSeq []uint64
	// tc holds the per-worker tuple caches replacing the shared ZenS cache
	// (nil when the config has no tuple cache).
	tc []*tupleCache
	// Round-scoped replay state (barrier-only).
	wrote   map[detSlot]*detWin
	insKeys map[detKey]struct{}
	tmods   map[uint8]uint64 // table id -> earliest structural-change vtime
}

// detTxn is the per-transaction group-mode state. The attempt's private copies
// of the CC words it touched are in its access set, not here.
type detTxn struct {
	scanVts map[uint8]uint64 // table id -> latest scan vtime (phantom check)
	// submitted marks that this transaction already occupied a round (its
	// attempt reached the barrier), so a retry must not submit a second
	// placeholder for the same round.
	submitted bool
	// tailErr carries a barrier-side commit-tail failure (e.g. table full)
	// back to the parked worker.
	tailErr error
}

// EnterGroup switches the engine into deterministic worker-parallel mode.
// The caller must be quiescent (no transactions in flight). The pmem system
// and any DRAM spaces switch to per-worker timing partitions; the shared
// tuple cache is cleared and replaced by per-worker caches.
func (e *Engine) EnterGroup() {
	if e.det != nil {
		return
	}
	n := e.cfg.Threads
	d := &detState{
		workers: n,
		lastSeq: make([]uint64, n),
		wrote:   make(map[detSlot]*detWin),
		insKeys: make(map[detKey]struct{}),
		tmods:   make(map[uint8]uint64),
	}
	d.base = e.gen.Seq() + 1
	d.min = d.base << 8
	d.group = sim.NewGroup(e.detReplay)
	e.sys.Space.EnterGroup(n)
	if e.dram != nil {
		e.dram.EnterGroup(n)
	}
	if e.board != nil {
		// Worker-side epoch sealing would mutate the board outside the round
		// barrier; defer all seals to the commit tails (SealExpired), which
		// replay serially in canonical order.
		e.board.EnterGroup()
	}
	if e.tcache != nil {
		// Entries cached before (or put after) group mode would go stale
		// against group-mode commits, which bypass the shared cache.
		e.tcache.clear()
		d.tc = make([]*tupleCache, n)
		for w := range d.tc {
			d.tc[w] = newTupleCache(e.cfg.TupleCacheBytes/n, e.tcache.slotBytes, e.sys.Cost())
		}
	}
	e.det = d
}

// LeaveGroup returns the engine to free-running mode, fast-forwarding the
// shared TID generator past every virtual-time TID issued in group mode.
func (e *Engine) LeaveGroup() {
	d := e.det
	if d == nil {
		return
	}
	var maxSeq uint64
	for _, s := range d.lastSeq {
		if s > maxSeq {
			maxSeq = s
		}
	}
	e.gen.Restore(maxSeq<<8 | 0xFF)
	e.sys.Space.LeaveGroup()
	if e.dram != nil {
		e.dram.LeaveGroup()
	}
	if e.board != nil {
		e.board.LeaveGroup()
	}
	e.det = nil
}

// Group returns the round scheduler while in group mode (nil otherwise).
// Benchmark drivers call Group().Begin(n) at phase start and Group().Leave()
// when a worker retires.
func (e *Engine) Group() *sim.Group {
	if e.det == nil {
		return nil
	}
	return e.det.group
}

// detTID issues worker's next virtual-time TID.
func (e *Engine) detTID(worker int, clk *sim.Clock) uint64 {
	d := e.det
	seq := d.base + clk.Nanos()
	if seq <= d.lastSeq[worker] {
		seq = d.lastSeq[worker] + 1
	}
	d.lastSeq[worker] = seq
	return seq<<8 | uint64(worker&0xFF)
}

// minActive is the reclaim horizon for heap allocation: the live ActiveSet
// minimum in free-running mode, the frozen round horizon in group mode.
func (e *Engine) minActive() uint64 {
	if d := e.det; d != nil {
		return d.min
	}
	return e.active.Min()
}

// detRecordScan records a table scan's completion vtime (phantom check).
func (tx *Txn) detRecordScan(t *Table) {
	if tx.dt == nil {
		return
	}
	if tx.dt.scanVts == nil {
		tx.dt.scanVts = make(map[uint8]uint64, 2)
	}
	if v := tx.clk.Nanos(); v > tx.dt.scanVts[t.id] {
		tx.dt.scanVts[t.id] = v
	}
}

// reserveKey claims an insert key latch. Group mode skips the shared latch
// table (duplicate inserts within a round are caught at the barrier) but
// charges the same probe cost.
func (tx *Txn) reserveKey(t *Table, key uint64) bool {
	if tx.dt != nil {
		tx.clk.Advance(tx.e.sys.Cost().DRAMFirstLine)
		return true
	}
	return tx.e.resv.tryReserve(tx.clk, t.id, key)
}

// releaseKey frees an insert key latch (no-op cost-charge in group mode).
func (tx *Txn) releaseKey(t *Table, key uint64) {
	if tx.dt != nil {
		tx.clk.Advance(tx.e.sys.Cost().DRAMFirstLine)
		return
	}
	tx.e.resv.release(tx.clk, t.id, key)
}

// tupleCache resolves the tuple cache serving this transaction's reads: the
// worker-private cache in group mode, the shared one otherwise.
func (tx *Txn) tupleCache() *tupleCache {
	if d := tx.e.det; d != nil {
		if d.tc == nil {
			return nil
		}
		return d.tc[tx.worker]
	}
	return tx.e.tcache
}

// tcPut installs a committed payload in the tuple cache. In group mode the
// committing worker's cache takes the payload and every other worker's cache
// drops the key — their entries would otherwise serve the superseded tuple.
func (e *Engine) tcPut(clk *sim.Clock, worker int, table uint8, key uint64, payload []byte) {
	if d := e.det; d != nil {
		if d.tc == nil {
			return
		}
		for w, c := range d.tc {
			if w == worker {
				c.put(clk, table, key, payload)
			} else {
				c.invalidate(clk, table, key)
			}
		}
		return
	}
	if e.tcache != nil {
		e.tcache.put(clk, table, key, payload)
	}
}

// tcInvalidate drops a key from the tuple cache (all workers' caches in
// group mode).
func (e *Engine) tcInvalidate(clk *sim.Clock, table uint8, key uint64) {
	if d := e.det; d != nil {
		for _, c := range d.tc {
			c.invalidate(clk, table, key)
		}
		return
	}
	if e.tcache != nil {
		e.tcache.invalidate(clk, table, key)
	}
}

// submit is the group-mode end of Commit: the validated transaction becomes
// this round's attempt and its worker parks until the barrier has replayed it.
func (tx *Txn) submit() error {
	att := &sim.Attempt{Order: tx.tid, Data: tx}
	tx.dt.submitted = true
	tx.e.det.group.Submit(att)
	if att.OK {
		return nil
	}
	if err := tx.dt.tailErr; err != nil && err != ErrConflict {
		return err
	}
	return ErrConflict
}

// detReplay is the round barrier: it runs on the last-arriving worker with
// every other worker parked, applying attempts in canonical (virtual time,
// worker) order. See the package comment at the top of this file.
func (e *Engine) detReplay(atts []*sim.Attempt) {
	d := e.det
	e.observatory.BarrierTick()
	for k := range d.wrote {
		delete(d.wrote, k)
	}
	for k := range d.insKeys {
		delete(d.insKeys, k)
	}
	for k := range d.tmods {
		delete(d.tmods, k)
	}
	minTid, maxTid := ^uint64(0), uint64(0)
	for _, a := range atts {
		if a.Order < minTid {
			minTid = a.Order
		}
		if a.Order > maxTid {
			maxTid = a.Order
		}
	}
	// Horizon TIDs drawn inside the tail (delete reclaim stamps) must exceed
	// every TID of the round; the replay is serial, so gen is deterministic.
	e.gen.Restore(maxTid)
	for _, a := range atts {
		if a.Data == nil {
			continue // exec-aborted placeholder: only waited out the round
		}
		tx := a.Data.(*Txn)
		// Read timestamps advance for every attempt, committed or not, as
		// they do at read time in free-running TO (max is commutative, so
		// merge order is irrelevant).
		tx.detMergeReadTS()
		if reason, ok := d.validate(tx); !ok {
			tx.setAbortCause(reason)
			tx.Abort()
			continue // a.OK stays false
		}
		if err := tx.commitTail(); err != nil {
			tx.dt.tailErr = err
			tx.classifyAbort(err)
			tx.Abort()
			continue
		}
		d.noteCommitted(tx)
		a.OK = true
	}
	if len(atts) > 0 {
		d.min = minTid
	}
}

// validate checks one attempt against what earlier-ordered winners of this
// round committed (virtual-time window rules; see the file comment). It reports
// the first conflict it finds, and which one that is is pinned
// (cmd/falcon/testdata/sweep_fig11_stats_contend.stdout): scans, then reads,
// then write locks, then inserts, each in the order the attempt made them.
func (d *detState) validate(tx *Txn) (obs.AbortReason, bool) {
	reason := obs.AbortLockConflict
	occ := tx.e.cfg.CC.Base() == cc.OCC
	if occ {
		reason = obs.AbortValidation
	}
	if tx.dt.scanVts != nil {
		// In table-id order, not map order: when two scanned tables both
		// changed, the conflict report must name the same one on every run.
		for _, t := range tx.e.tables {
			svt, scanned := tx.dt.scanVts[t.id]
			if first, ok := d.tmods[t.id]; scanned && ok && svt > first {
				tx.noteConflict(t, 0, 0, 0, obs.ConflictDetBarrier)
				return reason, false
			}
		}
	}
	conflict := func(a *access) (obs.AbortReason, bool) {
		tx.noteConflict(a.t, a.key, a.slot, 0, obs.ConflictDetBarrier)
		return reason, false
	}
	for i := range tx.acc {
		a := &tx.acc[i]
		if a.mode&accRead == 0 {
			continue
		}
		if w, ok := d.wrote[detSlot{a.t.id, a.slot}]; ok && (occ || a.vt > w.firstC) {
			return conflict(a)
		}
	}
	for i := range tx.acc {
		a := &tx.acc[i]
		if a.mode&accExcl == 0 {
			continue
		}
		if w, ok := d.wrote[detSlot{a.t.id, a.slot}]; ok && (w.structural || a.lockVt < w.lastC) {
			return conflict(a)
		}
	}
	for i := range tx.ops {
		ins := &tx.ops[i]
		if ins.kind != wal.OpInsert {
			continue
		}
		if _, dup := d.insKeys[detKey{ins.t.id, ins.key}]; dup {
			tx.noteConflict(ins.t, ins.key, ins.slot, 0, obs.ConflictDetBarrier)
			return reason, false
		}
	}
	return 0, true
}

// noteCommitted folds a winner's effects into the round's conflict windows.
func (d *detState) noteCommitted(tx *Txn) {
	cvt := tx.clk.Nanos()
	outp := tx.e.cfg.Update == OutOfPlace
	structural := func(t *Table) {
		if f, ok := d.tmods[t.id]; !ok || cvt < f {
			d.tmods[t.id] = cvt
		}
	}
	for i := range tx.ops {
		w := &tx.ops[i]
		if w.kind == wal.OpInsert {
			d.insKeys[detKey{w.t.id, w.key}] = struct{}{}
			structural(w.t)
			continue
		}
		k := detSlot{w.t.id, w.slot}
		win := d.wrote[k]
		if win == nil {
			win = &detWin{firstC: cvt, lastC: cvt}
			d.wrote[k] = win
		}
		if cvt < win.firstC {
			win.firstC = cvt
		}
		if cvt > win.lastC {
			win.lastC = cvt
		}
		if outp || w.kind == wal.OpDelete {
			win.structural = true
		}
		if w.kind == wal.OpDelete {
			structural(w.t)
		}
	}
}

// detMergeReadTS applies the read-timestamp advances the attempt made on its
// private copies to the live words (TO-family only: the other algorithms never
// read them). It merges what each copy holds, not the TID: a read under the
// attempt's own write lock is recorded for the barrier but advances no read
// timestamp, here as in free-running mode.
func (tx *Txn) detMergeReadTS() {
	if tx.e.cfg.CC.Base() != cc.TO {
		return
	}
	for i := range tx.acc {
		a := &tx.acc[i]
		if a.mode&accRead != 0 {
			_, rts := a.t.heap.Meta(a.slot)
			cc.MaxTS(rts, a.readTS.Load())
		}
	}
}
