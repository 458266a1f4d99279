package core

import (
	"errors"
	"fmt"

	"falcon/internal/alloc"
	"falcon/internal/cc"
	"falcon/internal/heap"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
	"falcon/internal/version"
	"falcon/internal/wal"
)

// catalogBase/catalogBytes fix the persistent catalog region right after the
// arena header; the catalog is the recovery entry point (§5.1).
const (
	catalogBase  = alloc.HeaderBytes
	catalogBytes = 256 << 10
	arenaStart   = catalogBase + catalogBytes
)

// Engine is one OLTP storage engine instance over a simulated memory system.
// The Config decides which of the paper's engines it behaves as.
type Engine struct {
	cfg   Config
	sys   *pmem.System
	nvm   pmem.Space
	arena *alloc.Arena

	dram     *pmem.MemSpace
	dramNext uint64 // bump allocator over dram

	tables []*Table
	byName map[string]*Table

	windowBase uint64
	markerBase uint64
	// epochBase is the 64 B line holding the durable group-commit epoch
	// marker; board coordinates durability epochs when GroupCommit is on
	// (nil otherwise — call sites pay one pointer test).
	epochBase uint64
	board     *wal.EpochBoard
	windows   []*wal.Window

	gen    cc.TIDGen
	active *cc.ActiveSet
	hot    []*hotSet // per worker; nil unless persist consults it
	tcache *tupleCache
	resv   *reservations

	// group is the token scheduler while the engine runs in deterministic
	// group mode (RunGroup), nil while workers run free.
	group *sim.Group

	clocks  []*sim.Clock
	scratch []workerScratch

	// probes holds one probe per worker (same single-owner contract as
	// clocks) — phase accounting, commit / abort / abort-reason counts, and
	// the seam every instrumented site reports to — and, last, the one
	// Recover ran under, which ResetCounters leaves alone.
	probes []obs.Probe
	// tstats holds per-worker × per-table activity counters (single-owner
	// rows, summed by ObsSnapshot).
	tstats [][]paddedTableStats
	// tracer and observatory are what Arm last routed the probes to (nil
	// while disarmed).
	tracer      *obs.Tracer
	observatory *obs.Observatory
	// validateHits makes index lookups verify the tuple's key column and
	// treat mismatches as misses. Recover enables it for NVM-index engines
	// restarted under ADR: index mutations travel through the volatile
	// cache, so the media can retain an entry whose delete was lost and
	// whose slot has since been recycled by another row — following it
	// blindly would serve that row's tuple under the wrong key.
	validateHits bool
}

// workerScratch holds a worker's reusable buffers, padded against false
// sharing: buf for point operations, scan for the scan in progress (scanIndex
// takes it for the length of the scan), img for the line image of a tuple
// being published (heap.Publish), acc and ops for the open attempt's access
// set and op list (begin takes them, finish hands them back), and for the
// commit in progress what persist has deferred and counted: lines written
// back, tuples the hot set elided.
type workerScratch struct {
	buf             []byte
	scan            []byte
	img             []byte
	acc             []access
	ops             []txnOp
	spans           []pmem.Span
	flushed, elided uint64
	_               [4]uint64
}

// Table is one relation: a tuple heap plus its indexes and (for MVCC) the
// DRAM version store.
type Table struct {
	e            *Engine
	id           uint8
	name         string
	schema       *layout.Schema
	keyCol       int
	secondaryCol int
	capacity     uint64

	heap      *heap.Heap
	primary   index.Index
	secondary index.Index
	versions  *version.Store

	heapBase, priBase, secBase uint64
	indexKind                  index.Kind
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the tuple layout.
func (t *Table) Schema() *layout.Schema { return t.schema }

// Heap exposes the underlying tuple heap (diagnostics and tests).
func (t *Table) Heap() *heap.Heap { return t.heap }

// ErrTableFull is returned when a table cannot hold more tuples.
var ErrTableFull = errors.New("core: table full")

// New creates an engine with the given tables on a fresh memory system.
func New(sys *pmem.System, cfg Config, specs []TableSpec) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		sys:    sys,
		nvm:    sys.Space,
		byName: make(map[string]*Table, len(specs)),
		active: cc.NewActiveSet(cfg.Threads),
		resv:   newReservations(),
		probes: make([]obs.Probe, cfg.Threads+1),
	}
	var err error
	// The space arena: header and catalog region reserved.
	e.arena, err = alloc.NewArena(sys.Space, 0, arenaStart, sys.Space.Size())
	if err != nil {
		return nil, err
	}
	widest := 0
	for _, spec := range specs {
		if spec.Schema != nil {
			widest = max(widest, spec.Schema.TupleSize())
		}
	}
	if err := e.initWorkers(widest); err != nil {
		return nil, err
	}

	clk := sim.NewClock() // setup costs are not attributed to workers
	// Per-thread log windows (in-place engines) and commit markers
	// (out-of-place engines) are allocated for every engine so the layout is
	// uniform.
	winBytes := wal.BytesNeeded(cfg.Window)
	e.windowBase, err = e.arena.Alloc(clk, winBytes*uint64(cfg.Threads))
	if err != nil {
		return nil, err
	}
	e.markerBase, err = e.arena.Alloc(clk, 64*uint64(cfg.Threads))
	if err != nil {
		return nil, err
	}
	e.epochBase, err = e.arena.Alloc(clk, 64)
	if err != nil {
		return nil, err
	}
	var zero [8]byte
	e.nvm.BulkWrite(e.epochBase, zero[:])
	e.windows = make([]*wal.Window, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		e.windows[t] = wal.NewWindow(e.nvm, e.windowBase+uint64(t)*winBytes, cfg.Window).Attach(&e.probes[t])
		e.nvm.BulkWrite(e.markerBase+64*uint64(t), zero[:])
	}
	e.initGroupCommit()

	for _, spec := range specs {
		if _, err := e.createTable(clk, spec); err != nil {
			return nil, fmt.Errorf("core: table %q: %w", spec.Name, err)
		}
	}
	if err := e.writeCatalog(clk); err != nil {
		return nil, err
	}
	return e, nil
}

// initGroupCommit attaches the group-commit epoch board to every window
// (no-op unless the configuration enables group commit). Shared by the
// create and recovery paths; the durable marker at epochBase must already be
// zeroed.
func (e *Engine) initGroupCommit() {
	if !e.cfg.GroupCommit {
		return
	}
	e.board = wal.NewEpochBoard(e.nvm, e.epochBase, wal.DefaultEpochNanos)
	for _, w := range e.windows {
		w.SetBoard(e.board)
	}
}

// initWorkers builds the per-worker state: clocks, scratch, table counters
// and, for an engine whose persist consults it (in place, FlushSelective),
// each worker's hot set in a fixed region of the DRAM space. widest is the
// largest tuple size among the tables, from which a zero HotTupleCap is
// derived (hotCapFor); the create and the recovery path both size the sets
// here, so a recovered engine derives what the one it replaces did.
func (e *Engine) initWorkers(widest int) error {
	e.clocks = make([]*sim.Clock, e.cfg.Threads)
	e.scratch = make([]workerScratch, e.cfg.Threads)
	e.tstats = make([][]paddedTableStats, e.cfg.Threads)
	for i := range e.clocks {
		// Worker clocks carry the worker id as a shard hint so the pmem
		// layer can route each worker's event counters to its own shard.
		e.clocks[i] = sim.NewWorkerClock(i)
	}
	if e.cfg.Update != InPlace || e.cfg.Flush != FlushSelective {
		return nil
	}
	if e.cfg.HotTupleCap == 0 {
		e.cfg.HotTupleCap = hotCapFor(e.sys.Config().CacheBytes/e.cfg.Threads, heap.SlotStride(widest))
	}
	e.hot = make([]*hotSet, e.cfg.Threads)
	for i := range e.hot {
		off, err := e.dramAlloc(hotSetBytes(e.cfg.HotTupleCap))
		if err != nil {
			return err
		}
		e.hot[i] = newHotSet(e.dram, off, e.cfg.HotTupleCap)
	}
	return nil
}

// paddedTableStats keeps one worker's counters for one table on a cache
// line of its own. TableStats is 40 B, so unpadded rows from different
// workers share lines and the per-op increments turn into cross-core
// traffic (measured ~40% on the host YCSB cell when this shipped unpadded).
type paddedTableStats struct {
	obs.TableStats
	_ [3]uint64
}

// addTable registers a fully built table with the engine, growing every
// worker's per-table counter row (both the create and the recovery path
// construct tables through here).
func (e *Engine) addTable(t *Table) {
	e.tables = append(e.tables, t)
	e.byName[t.name] = t
	for w := range e.tstats {
		e.tstats[w] = append(e.tstats[w], paddedTableStats{})
	}
}

// LogWindowRange returns the NVM address range [base, base+size) holding all
// threads' log windows — the region fault plans target for corruption
// injection (the durability chain's checksummed section).
func (e *Engine) LogWindowRange() (base, size uint64) {
	return e.windowBase, wal.BytesNeeded(e.cfg.Window) * uint64(e.cfg.Threads)
}

// scratchFor returns worker's reusable buffer of at least n bytes. Callers
// must finish with it before the next engine call on the same worker.
func (e *Engine) scratchFor(worker, n int) []byte {
	s := &e.scratch[worker]
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

// dramAlloc carves a region out of the engine's DRAM space, creating it on
// first use.
func (e *Engine) dramAlloc(n uint64) (uint64, error) {
	if e.dram == nil {
		e.dram = pmem.NewDRAM(e.cfg.DRAMBytes)
	}
	off := (e.dramNext + 63) &^ 63
	if off+n > e.dram.Size() {
		return 0, fmt.Errorf("core: DRAM space exhausted (need %d at %d)", n, off)
	}
	e.dramNext = off + n
	return off, nil
}

func (e *Engine) createTable(clk *sim.Clock, spec TableSpec) (*Table, error) {
	if len(e.tables) >= 250 {
		return nil, errors.New("core: too many tables")
	}
	if spec.Schema == nil || spec.Capacity == 0 {
		return nil, errors.New("core: table spec needs schema and capacity")
	}
	if spec.KeyCol < 0 || spec.KeyCol >= spec.Schema.NumColumns() {
		return nil, errors.New("core: bad key column")
	}
	t := &Table{
		e:            e,
		id:           uint8(len(e.tables)),
		name:         spec.Name,
		schema:       spec.Schema,
		keyCol:       spec.KeyCol,
		secondaryCol: spec.SecondaryCol,
		capacity:     spec.Capacity,
		indexKind:    spec.IndexKind,
	}
	hcfg := heap.Config{SlotSize: spec.Schema.TupleSize(), NSlots: e.cfg.HeapSlots(spec.Capacity), NThreads: e.cfg.Threads}
	var err error
	t.heapBase, err = e.arena.Alloc(clk, heap.BytesNeeded(hcfg))
	if err != nil {
		return nil, err
	}
	t.heap, err = heap.New(e.nvm, t.heapBase, hcfg)
	if err != nil {
		return nil, err
	}

	t.primary, t.priBase, err = e.buildIndex(clk, spec.IndexKind, spec.Capacity)
	if err != nil {
		return nil, err
	}
	if t.secondaryCol > 0 {
		t.secondary, t.secBase, err = e.buildIndex(clk, index.BTree, spec.Capacity)
		if err != nil {
			return nil, err
		}
	}

	if e.cfg.CC.MultiVersion() {
		t.versions = version.NewStore(t.heap.NSlots(), e.cfg.Threads)
	}
	if e.cfg.TupleCacheBytes > 0 {
		e.ensureTupleCache(spec.Schema.TupleSize())
	}

	e.addTable(t)
	return t, nil
}

func (e *Engine) ensureTupleCache(slotBytes int) {
	if e.tcache == nil || e.tcache.slotBytes < slotBytes {
		e.tcache = newTupleCache(e.cfg.TupleCacheBytes, slotBytes)
	}
}

// buildIndex places the index of a table of the given capacity on NVM or
// DRAM per the configuration.
func (e *Engine) buildIndex(clk *sim.Clock, kind index.Kind, capacity uint64) (index.Index, uint64, error) {
	capacity = e.cfg.IndexKeys(kind, capacity)
	var bytes uint64
	if kind == index.Hash {
		bytes = index.HashBytes(capacity)
	} else {
		bytes = index.BTreeBytes(capacity)
	}
	if e.cfg.Index == IndexDRAM {
		off, err := e.dramAlloc(bytes)
		if err != nil {
			return nil, 0, err
		}
		idx, err := e.newIndexOn(e.dram, off, kind, capacity)
		return idx, off, err
	}
	off, err := e.arena.Alloc(clk, bytes)
	if err != nil {
		return nil, 0, err
	}
	idx, err := e.newIndexOn(e.nvmIndexSpace(), off, kind, capacity)
	return idx, off, err
}

// nvmIndexSpace is the space an NVM index lives on: the NVM space, through a
// view whose flushes do nothing when the flush policy issues none (the
// B-tree flushes the nodes an ascending run leaves behind).
func (e *Engine) nvmIndexSpace() pmem.Space {
	if e.cfg.Flush == FlushNone {
		return e.sys.Space.NoFlush()
	}
	return e.nvm
}

func (e *Engine) newIndexOn(space pmem.Space, off uint64, kind index.Kind, capacity uint64) (index.Index, error) {
	if kind == index.Hash {
		return index.NewHash(space, off, capacity)
	}
	return index.NewBTree(space, off, capacity)
}

// Table returns a table by name.
func (e *Engine) Table(name string) *Table { return e.byName[name] }

// Tables returns all tables in id order.
func (e *Engine) Tables() []*Table { return e.tables }

// Config returns the engine configuration (with defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// System returns the underlying simulated memory system.
func (e *Engine) System() *pmem.System { return e.sys }

// Clock returns worker w's virtual clock.
func (e *Engine) Clock(worker int) *sim.Clock { return e.clocks[worker] }

// Clocks returns all worker clocks (throughput accounting).
func (e *Engine) Clocks() []*sim.Clock { return e.clocks }

// ResetClocks rewinds all worker clocks (between benchmark phases).
func (e *Engine) ResetClocks() {
	for _, c := range e.clocks {
		c.Reset()
	}
}

// RunGroup runs body(w) for workers 0..n-1 in deterministic group mode, one
// at a time on the one simulated machine under the token of a sim.Group over
// their clocks, handed on at the safe points: begin before the TID is drawn,
// every operation's entry, Commit before validate, and the snapshot read's
// spin. A group-mode worker runs the free-running code, so one worker gives
// what it gives free-running. DESIGN.md §7 has the rule and the lock
// invariant that makes it safe. The caller must be quiescent, and body(w)
// calls the engine as worker w only.
func (e *Engine) RunGroup(n int, body func(w int)) {
	e.group = sim.NewGroup(e.clocks)
	defer func() { e.group = nil }()
	e.group.Run(n, body)
}

// Commits returns the number of committed transactions.
func (e *Engine) Commits() uint64 { return e.outcomes().Commits }

// Aborts returns the number of aborted transaction attempts.
func (e *Engine) Aborts() uint64 { return e.outcomes().Aborts }

// outcomes sums the probes' counts, which may be read while workers run.
func (e *Engine) outcomes() (s obs.Snapshot) {
	for i := range e.probes {
		e.probes[i].AddCounts(&s)
	}
	return s
}

// ResetCounters zeroes every engine-owned observability counter: commits,
// aborts, the abort-reason taxonomy, the per-worker phase accumulators, the
// WAL window gauges, and the hot-set counters. It must only run while no
// transactions are in flight (between benchmark phases).
//
// The pmem.Stats hardware counters are deliberately NOT reset here: they
// belong to the shared simulated device (Engine.System().Dev), which can
// outlive this engine and carries cache/XPBuffer state across phases —
// warmup-dirtied lines may write back during measurement, and zeroing the
// counters mid-stream would leave other holders of the same System with a
// corrupt baseline. Warmup exclusion for hardware events therefore diffs two
// point-in-time copies via pmem.Snapshot.Sub (see bench.Run and
// obs.Snapshot.Sub).
func (e *Engine) ResetCounters() {
	for i := range e.probes[:e.cfg.Threads] {
		e.probes[i].Reset()
	}
	for _, w := range e.windows {
		w.ResetStats()
	}
	for _, h := range e.hot {
		h.stats = obs.HotSetStats{}
	}
	if e.board != nil {
		e.board.ResetStats()
	}
	for w := range e.tstats {
		for i := range e.tstats[w] {
			e.tstats[w][i] = paddedTableStats{}
		}
	}
}

// ObsSnapshot assembles one observability snapshot: the probes' counts and
// phase time, the log windows, the group-commit board, the hot sets, the pmem
// device, the observatory while armed, and the per-table rows. The
// single-owner sources (probes' phase time, windows, hot sets, table rows) are
// coherent only while workers are quiescent — the same contract as reading
// sim.Clock values.
func (e *Engine) ObsSnapshot() obs.Snapshot {
	var s obs.Snapshot
	for i := range e.probes {
		e.probes[i].AddTo(&s)
	}
	for _, w := range e.windows {
		s.WAL.Add(w.Stats())
	}
	if e.board != nil {
		s.Epochs.Add(e.board.Stats())
	}
	for _, h := range e.hot {
		s.Hot.Add(h.stats)
	}
	if e.hot != nil {
		s.Hot.Capacity = e.cfg.HotTupleCap
	}
	s.Mem = e.sys.Dev.Stats().Snapshot()
	s.CacheSets, s.CacheWays = e.sys.Cache.Geometry()
	s.Contend = e.observatory.Report()
	if len(e.tables) > 0 {
		s.Tables = make(map[string]obs.TableStats, len(e.tables))
	}
	for _, t := range e.tables {
		var agg obs.TableStats
		for w := range e.tstats {
			agg.Add(e.tstats[w][t.id].TableStats)
		}
		for _, idx := range []index.Index{t.primary, t.secondary} {
			if r, ok := idx.(interface{ Restarts() uint64 }); ok {
				agg.IndexRestarts += r.Restarts()
			}
		}
		s.Tables[t.name] = agg
	}
	return s
}

// Sync flushes all dirty simulated state to the media (clean shutdown).
// With group commit on, every open durability epoch seals first so no
// published record is left behind its durable point.
func (e *Engine) Sync(clk *sim.Clock) {
	if e.board != nil {
		e.board.SealAll(clk, nil)
	}
	e.sys.Sync(clk)
}

// Load bulk-installs one tuple during initial data load: a slot from
// thread's range, the tuple with timestamp 0 (committed whatever the
// per-thread commit markers say), then its primary and secondary index
// entries. It charges no worker clock (nil clocks; sim.Clock methods are
// nil-safe) and runs before any transaction.
func (t *Table) Load(thread int, key uint64, payload []byte) error {
	slot, err := t.heap.Alloc(nil, thread, 0)
	if err != nil {
		return err
	}
	t.heap.BulkInstall(slot, 0, payload)
	if err := t.primary.Insert(nil, key, slot); err != nil {
		return fmt.Errorf("slot %d primary %v: %w", slot, t.primary.Kind(), err)
	}
	if t.secondary != nil {
		sec := t.heap.ReadRangeU64(nil, slot, t.schema.Offset(t.secondaryCol))
		if err := t.secondary.Insert(nil, sec, slot); err != nil {
			return fmt.Errorf("slot %d secondary key %#x: %w", slot, sec, err)
		}
	}
	return nil
}
