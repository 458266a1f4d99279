package obs

import (
	"math/bits"
	"sort"

	"falcon/internal/pmem"
)

const (
	// popSketchBits sizes the per-worker key-popularity sketch (2^14
	// counters, 64 KiB per worker). Collisions over-estimate popularity —
	// acceptable for an attribution bucket index.
	popSketchBits = 14
	popMask       = 1<<popSketchBits - 1
	// heatBits sizes the key-space heat rings (256 buckets renders as a
	// four-row markdown table).
	heatBits = 8
	heatMask = 1<<heatBits - 1
)

// ObservatoryConfig describes the engine an observatory attaches to.
type ObservatoryConfig struct {
	// Workers is the worker-goroutine count (one recorder shard each).
	Workers int
	// Algo names the CC algorithm, repeated on every attribution row.
	Algo string
	// Tables maps table id to name for attribution and logical-byte rows.
	Tables []string
	// Banks is the XPBuffer bank count for set-contention accounting.
	Banks int
}

// rangeEntry maps one address range [lo, hi) to a flush-amplification cell.
type rangeEntry struct {
	lo, hi uint64
	cell   int
}

// Observatory is the contention & flush-amplification recorder: one shard
// per worker, written only by that worker's Probe and merged into a canonical
// report while the workers are quiescent, plus the address-range map that
// attributes flush traffic to tables. In deterministic group mode every
// recorded quantity derives from virtual-time state, so the merged report is
// byte-identical across host schedules and GOMAXPROCS settings. Construction
// and AddRange happen before arming; after that the struct is immutable except
// through the shards and the barrier-serialized round counter.
type Observatory struct {
	cfg     ObservatoryConfig
	ranges  []rangeEntry
	cells   []string // flush-amp cell names, in registration order
	workers []contendShard
	// rounds counts deterministic group-scheduler replay barriers. The
	// barrier body is mutually exclusive and ordered (the same contract that
	// lets applyWriteSet run there), so a plain counter suffices.
	rounds uint64
}

// NewObservatory builds an observatory for cfg; a worker count below 1 is
// taken as 1.
func NewObservatory(cfg ObservatoryConfig) *Observatory {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	o := &Observatory{cfg: cfg, workers: make([]contendShard, cfg.Workers)}
	for i := range o.workers {
		w := &o.workers[i]
		w.o = o
		w.id = i
		w.conflicts = make([][]uint64, len(cfg.Tables))
		w.waits = make([][]uint64, len(cfg.Tables))
		for t := range cfg.Tables {
			w.conflicts[t] = make([]uint64, NumPopBuckets*NumConflictKinds)
			w.waits[t] = make([]uint64, NumPopBuckets*NumConflictKinds)
		}
		w.pop = make([]uint32, 1<<popSketchBits)
		w.lockHeat = make([]uint64, 1<<heatBits)
		w.verHeat = make([]uint64, 1<<heatBits)
		w.flushHeat = make([]uint64, 1<<heatBits)
		w.edges = make([]waitEdge, cfg.Workers)
		w.logical = make([]uint64, len(cfg.Tables))
		if cfg.Banks > 0 {
			w.bankEv = make([]uint64, cfg.Banks)
		}
		w.ex = make(map[uint32]*exEntry)
	}
	return o
}

// AddRange registers an address range for flush-traffic attribution. Ranges
// sharing a name share a flush-amp cell (a table's heap plus its overflow
// area, say). Must be called before arming.
func (o *Observatory) AddRange(name string, lo, hi uint64) {
	cell := -1
	for i, n := range o.cells {
		if n == name {
			cell = i
			break
		}
	}
	if cell < 0 {
		cell = len(o.cells)
		o.cells = append(o.cells, name)
		for i := range o.workers {
			o.workers[i].writebacks = append(o.workers[i].writebacks, [5]uint64{})
		}
	}
	o.ranges = append(o.ranges, rangeEntry{lo: lo, hi: hi, cell: cell})
}

// shard returns worker i's shard (nil when o is, or i is out of range,
// mirroring Tracer.Worker).
func (o *Observatory) shard(i int) *contendShard {
	if o == nil || i < 0 || i >= len(o.workers) {
		return nil
	}
	return &o.workers[i]
}

// BarrierTick records one deterministic group-scheduler replay barrier. It
// must only be called from barrier context (mutually exclusive, ordered).
func (o *Observatory) BarrierTick() {
	if o != nil {
		o.rounds++
	}
}

// waitEdge accumulates one out-edge of the wait-for graph from the owning
// worker's perspective: how often it conflicted against the holder, and the
// most recent conflicting tuple.
type waitEdge struct {
	count uint64
	table int32
	slot  uint64
}

// exEntry is the slowest-transaction exemplar for one attribution bucket.
type exEntry struct {
	dur uint64
	ex  Exemplar
}

// contendShard is one worker's shard of the observatory. The counting paths
// allocate nothing; only exemplar admission (rare, tracer-armed only) copies
// span stacks.
type contendShard struct {
	o  *Observatory
	id int
	// conflicts/waits are dense counters indexed [table][pop*K+kind].
	conflicts [][]uint64
	waits     [][]uint64
	// pop is the key-popularity sketch (saturating counts).
	pop []uint32
	// heat rings: lock conflicts, version conflicts, flush traffic.
	lockHeat, verHeat, flushHeat []uint64
	// edges[h] accumulates conflicts this worker suffered against holder h.
	edges []waitEdge
	// writebacks[cell][pmem.FlushKind] counts attributed writeback events;
	// logical[table] counts committed write-set payload bytes.
	writebacks [][5]uint64
	logical    []uint64
	// bankEv[bank] counts XPBuffer evictions per bank.
	bankEv        []uint64
	walFlushLines uint64
	walGroupWait  uint64
	// ex holds slowest-1 exemplars keyed by (table<<16 | pop<<8 | kind).
	ex map[uint32]*exEntry
	// pad keeps adjacent workers' hot state off one cache line.
	_ [4]uint64
}

// mix is a splitmix64-style finalizer over (table, key) — the deterministic
// hash behind the popularity sketch and the heat rings.
func mix(table int, k uint64) uint64 {
	x := k ^ (uint64(table)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func mixAddr(a uint64) uint64 { return mix(0, a) }

// touch feeds the popularity sketch: one access to key in table.
func (w *contendShard) touch(table int, key uint64) {
	s := &w.pop[mix(table, key)&popMask]
	if *s != ^uint32(0) {
		*s++
	}
}

// popBucket returns the log2 popularity bucket of key: 0 = never touched by
// this worker, i = touched [2^(i-1), 2^i) times.
func (w *contendShard) popBucket(table int, key uint64) int {
	b := bits.Len32(w.pop[mix(table, key)&popMask])
	if b >= NumPopBuckets {
		b = NumPopBuckets - 1
	}
	return b
}

// conflict records one contention event: kind against (table, key) at heap
// slot, attributed to the holder worker (-1 when unknown), with waitNanos of
// virtual stall (0 for pure abort-and-retry kinds) at virtual time now. tr,
// when armed, supplies the open transaction's span stack for the bucket's
// slowest exemplar.
func (w *contendShard) conflict(tr *WorkerTracer, table int, key, slot uint64, kind ConflictKind, holder int, waitNanos, now uint64) {
	if table < 0 || table >= len(w.conflicts) {
		return
	}
	pop := w.popBucket(table, key)
	idx := pop*NumConflictKinds + int(kind)
	w.conflicts[table][idx]++
	w.waits[table][idx] += waitNanos

	h := mix(table, key) & heatMask
	switch kind {
	case ConflictLockFail, ConflictUpgrade, ConflictSpinWait:
		w.lockHeat[h]++
	default:
		w.verHeat[h]++
	}

	if holder >= 0 && holder < len(w.edges) && holder != w.id {
		e := &w.edges[holder]
		e.count++
		e.table = int32(table)
		e.slot = slot
	}

	if tr != nil {
		if el := tr.TxnElapsed(now); el > 0 {
			k := uint32(table)<<16 | uint32(pop)<<8 | uint32(kind)
			ent := w.ex[k]
			if ent == nil {
				ent = &exEntry{}
				w.ex[k] = ent
			}
			if el > ent.dur && tr.CaptureCurrent(&ent.ex, now, kind.String()) {
				ent.dur = el
			}
		}
	}
}

// flush attributes one write-back at addr to its registered range and feeds
// the flush heat ring and the XPBuffer set-contention counters.
func (w *contendShard) flush(kind pmem.FlushKind, addr uint64) {
	for _, r := range w.o.ranges {
		if addr >= r.lo && addr < r.hi {
			w.writebacks[r.cell][kind]++
			break
		}
	}
	w.flushHeat[mixAddr(addr/pmem.LineSize)&heatMask]++
	if kind >= pmem.FlushXPFull && len(w.bankEv) > 0 {
		w.bankEv[(addr/pmem.BlockSize)%uint64(len(w.bankEv))]++
	}
}

// Report merges every worker shard into the canonical ContentionStats. It
// must run while the workers are quiescent. The merge order is fixed
// (workers ascending, tables/buckets/kinds ascending, rows re-sorted by
// conflict count), so identical shard contents produce identical reports.
func (o *Observatory) Report() *ContentionStats {
	if o == nil {
		return nil
	}
	c := &ContentionStats{Algo: o.cfg.Algo}

	// Conflict attribution, densely merged then filtered to non-zero rows.
	cells := NumPopBuckets * NumConflictKinds
	for t, name := range o.cfg.Tables {
		for idx := 0; idx < cells; idx++ {
			var n, wait uint64
			for i := range o.workers {
				n += o.workers[i].conflicts[t][idx]
				wait += o.workers[i].waits[t][idx]
			}
			if n == 0 && wait == 0 {
				continue
			}
			pop := idx / NumConflictKinds
			kind := ConflictKind(idx % NumConflictKinds)
			row := AttributionRow{
				Table: name, PopBucket: pop, Algo: o.cfg.Algo,
				Kind: kind.String(), Conflicts: n, WaitNanos: wait,
			}
			// Slowest exemplar across workers; ties keep the lowest worker.
			key := uint32(t)<<16 | uint32(pop)<<8 | uint32(kind)
			var best *exEntry
			for i := range o.workers {
				if e := o.workers[i].ex[key]; e != nil && (best == nil || e.dur > best.dur) {
					best = e
				}
			}
			if best != nil {
				ex := best.ex
				ex.Events = append([]Event(nil), best.ex.Events...)
				row.Exemplar = &ex
			}
			c.Attribution = append(c.Attribution, row)
		}
	}
	sort.SliceStable(c.Attribution, func(i, j int) bool {
		a, b := c.Attribution[i], c.Attribution[j]
		if a.Conflicts != b.Conflicts {
			return a.Conflicts > b.Conflicts
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.PopBucket != b.PopBucket {
			return a.PopBucket < b.PopBucket
		}
		return a.Kind < b.Kind
	})

	// Heat rings.
	heat := &HeatDump{
		Buckets: 1 << heatBits,
		Lock:    make([]uint64, 1<<heatBits),
		Version: make([]uint64, 1<<heatBits),
		Flush:   make([]uint64, 1<<heatBits),
	}
	var heatTotal uint64
	for i := range o.workers {
		w := &o.workers[i]
		for b := 0; b < 1<<heatBits; b++ {
			heat.Lock[b] += w.lockHeat[b]
			heat.Version[b] += w.verHeat[b]
			heat.Flush[b] += w.flushHeat[b]
			heatTotal += w.lockHeat[b] + w.verHeat[b] + w.flushHeat[b]
		}
	}
	if heatTotal > 0 {
		c.Heat = heat
	}

	// Flush amplification: join attributed writeback cells with per-table
	// logical bytes by name.
	amp := map[string]*FlushAmpRow{}
	rowFor := func(name string) *FlushAmpRow {
		r := amp[name]
		if r == nil {
			r = &FlushAmpRow{Table: name}
			amp[name] = r
		}
		return r
	}
	for ci, name := range o.cells {
		r := rowFor(name)
		for i := range o.workers {
			f := &o.workers[i].writebacks[ci]
			r.ClwbLines += f[pmem.FlushClwb]
			r.TrainLines += f[pmem.FlushTrain]
			r.EvictLines += f[pmem.FlushEvict]
			r.XPFullEvicts += f[pmem.FlushXPFull]
			r.XPPartialEvicts += f[pmem.FlushXPPartial]
		}
	}
	for t, name := range o.cfg.Tables {
		var n uint64
		for i := range o.workers {
			n += o.workers[i].logical[t]
		}
		if n > 0 {
			rowFor(name).LogicalBytes = n
		}
	}
	names := make([]string, 0, len(amp))
	for name, r := range amp {
		if r.LogicalBytes > 0 || r.FlushedBytes() > 0 || r.XPFullEvicts > 0 || r.XPPartialEvicts > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		c.FlushAmp = append(c.FlushAmp, *amp[name])
	}

	// WAL contributions.
	for i := range o.workers {
		c.WALFlushLines += o.workers[i].walFlushLines
		c.WALGroupWaitNanos += o.workers[i].walGroupWait
	}

	// XPBuffer set contention.
	if o.cfg.Banks > 0 {
		banks := make([]uint64, o.cfg.Banks)
		var total uint64
		for i := range o.workers {
			for b, n := range o.workers[i].bankEv {
				banks[b] += n
				total += n
			}
		}
		if total > 0 {
			c.BankEvictions = banks
			var h Histogram
			for _, n := range banks {
				h.Observe(n)
			}
			c.SetContention = h.Dump()
		}
	}

	// Wait-for graph.
	wf := &WaitForDump{Workers: len(o.workers), Rounds: o.rounds}
	in := make([]uint64, len(o.workers))
	out := make([]uint64, len(o.workers))
	for i := range o.workers {
		w := &o.workers[i]
		for h := range w.edges {
			e := &w.edges[h]
			if e.count == 0 {
				continue
			}
			table := ""
			if int(e.table) < len(o.cfg.Tables) {
				table = o.cfg.Tables[e.table]
			}
			wf.Edges = append(wf.Edges, WaitForEdge{
				Waiter: i, Holder: h, Count: e.count, Table: table, Slot: e.slot,
			})
			out[i] += e.count
			in[h] += e.count
		}
	}
	if len(wf.Edges) > 0 {
		wf.Cycles = DetectCycles(len(o.workers), wf.Edges)
		for i := range o.workers {
			if in[i] == 0 && out[i] == 0 {
				continue
			}
			wf.Hot = append(wf.Hot, WaitForVertex{Worker: i, In: in[i], Out: out[i]})
		}
		sort.SliceStable(wf.Hot, func(i, j int) bool { return wf.Hot[i].In > wf.Hot[j].In })
	}
	if len(wf.Edges) > 0 || wf.Rounds > 0 {
		c.WaitFor = wf
	}
	return c
}
